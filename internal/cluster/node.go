package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdrw/internal/serve"
)

// errCluster is the sentinel every cluster-machinery failure wraps; serve
// maps it to 502. Not-ready conditions wrap serve.ErrClusterNotReady (503).
var errCluster = serve.ErrCluster

// errBadRequest marks protocol requests that are malformed in themselves —
// undecodable bodies, non-numeric query params, out-of-range ranks — as
// distinct from genuine round-protocol conflicts: the shard HTTP surface
// maps it to 400 where round conflicts stay 409.
var errBadRequest = fmt.Errorf("%w: bad request", errCluster)

// PeerError reports one peer that failed or timed out during a cluster
// detection — the bounded, typed abort the driver returns instead of letting
// a dead shard wedge the round protocol. It wraps serve.ErrCluster, so the
// HTTP layer maps it to 502.
type PeerError struct {
	// Peer is the advertise URL of the member that missed its deadline.
	Peer string
	// Err is the underlying failure: a closed link, a failed frame write,
	// an error frame the peer answered or a wait that timed out.
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster peer %s failed: %v", e.Peer, e.Err)
}

// Unwrap exposes both the cluster error class and the underlying cause.
func (e *PeerError) Unwrap() []error { return []error{errCluster, e.Err} }

// gossipInterval paces the background loop: the join phase gossips at this
// rate until membership settles, and the monitor phase wakes at the same
// rate to check whether a liveness probe is due.
const gossipInterval = 150 * time.Millisecond

// Defaults for the failure-detection knobs (cdrwd flags -peer-timeout and
// -heartbeat override them).
const (
	defaultPeerTimeout       = 2 * time.Second
	defaultHeartbeatInterval = 500 * time.Millisecond
)

// heartbeatMisses is how many consecutive missed liveness probes declare a
// peer dead. With the defaults that is ~1.5 s of silence — inside the ~2 s
// failure budget but tolerant of one dropped packet.
const heartbeatMisses = 3

// Config describes one shard of a static cluster.
type Config struct {
	// Size is the expected member count k (≥ 2). Membership settles — and
	// the shard turns ready — exactly when Size distinct members are known.
	Size int
	// Advertise is this shard's own base URL as peers reach it
	// (e.g. "http://10.0.0.3:8080").
	Advertise string
	// Join lists base URLs of any known peers; coordinator-free discovery
	// gossips the member set outward from these seeds, so each shard only
	// needs one reachable peer (the first shard needs none).
	Join []string
	// PlacementSeed keys the deterministic hash placement
	// (kmachine.HashPartition). Every shard must use the same seed.
	PlacementSeed uint64
	// PeerTimeout bounds every gossip request and liveness probe, every
	// link dial and frame write, the driver's wait for its sessions' open
	// acks and a shard's wait for its peers' share frames. The driver's
	// wait for a round's replies — which nests the shards' share waits — is
	// allowed 3× this. 0 means 2 s.
	PeerTimeout time.Duration
	// HeartbeatInterval paces the settled shard's peer liveness probes;
	// heartbeatMisses consecutive failures evict the peer. 0 means 500 ms.
	HeartbeatInterval time.Duration
}

// Node is one cluster shard: membership, the shard side of the round
// protocol (sessions), and the driver side (Detect/DetectCommunity) for
// requests that land here. It implements serve.ClusterBackend.
type Node struct {
	reg    *serve.Registry
	cfg    Config
	client *http.Client

	peerTimeout time.Duration
	hbInterval  time.Duration

	mu       sync.Mutex
	members  map[string]struct{}
	ranks    []string // sorted members, valid once settled
	self     int      // own rank, valid once settled
	settled  bool
	started  bool
	sessions map[string]*session

	seq     atomic.Int64
	metrics WireMetrics

	// Links (link.go): every open link in both directions, and the
	// goroutines of both plus the advances the readers start. linksOff is
	// set by Stop; no link opens after it. sendMu guards outbound, the
	// link each peer's frames go out on.
	linkMu   sync.Mutex
	links    map[*link]struct{}
	linksOff bool
	linkWG   sync.WaitGroup
	sendMu   sync.Mutex
	outbound map[string]*link

	stop chan struct{}
	done chan struct{}
}

// New creates a shard node over the registry its daemon serves from.
func New(reg *serve.Registry, cfg Config) (*Node, error) {
	if cfg.Size < 2 {
		return nil, fmt.Errorf("cluster: size %d must be ≥ 2", cfg.Size)
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: empty advertise URL")
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = defaultPeerTimeout
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	n := &Node{
		reg:         reg,
		cfg:         cfg,
		client:      &http.Client{Timeout: cfg.PeerTimeout},
		peerTimeout: cfg.PeerTimeout,
		hbInterval:  cfg.HeartbeatInterval,
		members:     map[string]struct{}{cfg.Advertise: {}},
		sessions:    make(map[string]*session),
		links:       make(map[*link]struct{}),
		outbound:    make(map[string]*link),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, peer := range cfg.Join {
		if peer != "" && peer != cfg.Advertise {
			n.members[peer] = struct{}{}
		}
	}
	n.checkSettledLocked()
	return n, nil
}

// Start launches the background loop: gossip until membership settles, then
// monitor peer liveness, evicting members that miss heartbeatMisses
// consecutive probes, which flips /readyz to not-ready. It returns
// immediately; readiness flips asynchronously once Size members are known.
// Even an already-settled shard (complete Join list) announces itself once,
// so peers booted with partial seed lists still learn the full membership
// from it.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	go n.loop()
}

// Stop terminates the background loop, closes every session and every
// link, and waits for the links' goroutines (http.Server.Close leaves
// hijacked connections open).
func (n *Node) Stop() {
	n.mu.Lock()
	started := n.started
	open := make([]*session, 0, len(n.sessions))
	for id, s := range n.sessions {
		open = append(open, s)
		delete(n.sessions, id)
	}
	n.mu.Unlock()
	select {
	case <-n.stop:
	default:
		close(n.stop)
		slog.Info("cluster node stopping", "advertise", n.cfg.Advertise, "open_sessions", len(open))
	}
	if started {
		<-n.done
	}
	for _, s := range open {
		s.close()
	}
	n.linkMu.Lock()
	n.linksOff = true
	n.linkMu.Unlock()
	n.closeLinks("")
	n.linkWG.Wait()
}

// loop is the shard's background heartbeat: one goroutine that gossips
// while unsettled (including after an eviction, so a restarted peer can
// re-join and re-settle the membership) and, while settled, probes every
// peer's liveness.
func (n *Node) loop() {
	defer close(n.done)
	ticker := time.NewTicker(gossipInterval)
	defer ticker.Stop()
	miss := make(map[string]int)
	var lastProbe time.Time
	n.gossip() // announce immediately, even when already settled
	for {
		select {
		case <-ticker.C:
		case <-n.stop:
			return
		}
		if !n.Ready() {
			n.gossip()
			continue
		}
		if time.Since(lastProbe) < n.hbInterval {
			continue
		}
		lastProbe = time.Now()
		for _, peer := range n.peersSnapshot() {
			select {
			case <-n.stop:
				return
			default:
			}
			if n.probe(peer) {
				delete(miss, peer)
				continue
			}
			miss[peer]++
			if miss[peer] >= heartbeatMisses {
				delete(miss, peer)
				n.evict(peer, "missed liveness probes")
			}
		}
	}
}

// probe checks one peer's liveness endpoint within the peer deadline.
func (n *Node) probe(peer string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), n.peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peersSnapshot returns every settled member except this shard.
func (n *Node) peersSnapshot() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.settled {
		return nil
	}
	out := make([]string, 0, len(n.ranks)-1)
	for _, p := range n.ranks {
		if p != n.cfg.Advertise {
			out = append(out, p)
		}
	}
	return out
}

// evict removes a dead member: membership un-settles (so /readyz flips to
// not-ready and new cluster detections refuse with ErrClusterNotReady), and
// every session is dropped — all of them span the full roster, so all are
// orphaned by the loss. The member map keeps gossiping afterwards, so a
// restarted peer that re-joins re-settles the membership.
func (n *Node) evict(peer, reason string) {
	n.mu.Lock()
	if _, ok := n.members[peer]; !ok {
		n.mu.Unlock()
		return
	}
	delete(n.members, peer)
	n.settled = false
	n.ranks = nil
	orphans := make([]*session, 0, len(n.sessions))
	for id, s := range n.sessions {
		orphans = append(orphans, s)
		delete(n.sessions, id)
	}
	n.mu.Unlock()
	for _, s := range orphans {
		s.close()
		slog.Info("cluster session closed", "session", s.id, "reason", "peer evicted", "peer", peer)
	}
	n.closeLinks(peer)
	n.metrics.addEviction()
	slog.Warn("cluster peer evicted", "peer", peer, "reason", reason,
		"orphaned_sessions", len(orphans), "advertise", n.cfg.Advertise)
}

// gossip pushes this shard's member view to every known peer and merges
// what comes back.
func (n *Node) gossip() {
	n.mu.Lock()
	req := joinRequest{Advertise: n.cfg.Advertise, Members: memberList(n.members)}
	n.mu.Unlock()
	for _, peer := range req.Members {
		if peer == n.cfg.Advertise {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.peerTimeout)
		var resp joinResponse
		err := n.postJSON(ctx, peer+"/cluster/join", req, &resp)
		cancel()
		if err != nil {
			continue // unreachable peers retry next tick
		}
		n.merge(resp.Members)
	}
}

// merge folds peers into the member set and re-checks settlement.
func (n *Node) merge(peers []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.settled {
		return
	}
	for _, p := range peers {
		if p != "" {
			n.members[p] = struct{}{}
		}
	}
	n.checkSettledLocked()
}

// checkSettledLocked freezes the rank order the moment Size members are
// known: ranks are the sorted member URLs, so every shard derives the same
// numbering with no coordination.
func (n *Node) checkSettledLocked() {
	if n.settled || len(n.members) != n.cfg.Size {
		return
	}
	n.ranks = memberList(n.members)
	n.self = sort.SearchStrings(n.ranks, n.cfg.Advertise)
	n.settled = true
	n.metrics.init(n.cfg.Size)
	slog.Info("cluster membership settled", "rank", n.self, "size", n.cfg.Size, "advertise", n.cfg.Advertise)
}

func memberList(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Ready reports whether membership has settled.
func (n *Node) Ready() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.settled
}

// Status returns the shard's membership view for /readyz and /cluster/info.
func (n *Node) Status() serve.ClusterStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := serve.ClusterStatus{
		Advertise: n.cfg.Advertise,
		Size:      n.cfg.Size,
		Members:   memberList(n.members),
		Settled:   n.settled,
		Rank:      -1,
	}
	if n.settled {
		st.Rank = n.self
	}
	return st
}

// Metrics exposes the wire counters (read-only use).
func (n *Node) Metrics() *WireMetrics { return &n.metrics }

// WriteMetrics implements serve.ClusterBackend.
func (n *Node) WriteMetrics(w io.Writer) error {
	if err := n.metrics.WritePrometheus(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"# HELP cdrw_cluster_open_sessions Live detection sessions on this shard.\n"+
			"# TYPE cdrw_cluster_open_sessions gauge\n"+
			"cdrw_cluster_open_sessions %d\n", n.sessionCount())
	return err
}

// sessionCount reports live sessions (leak assertions in tests).
func (n *Node) sessionCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sessions)
}

// roster returns the settled rank order and this shard's rank.
func (n *Node) roster() ([]string, int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.settled {
		return nil, 0, fmt.Errorf("%w: %d of %d members known", serve.ErrClusterNotReady, len(n.members), n.cfg.Size)
	}
	return n.ranks, n.self, nil
}

// linkSession returns the live session a frame from peer names and peer's
// rank in it, or nil unless peer is one of its other members.
func (n *Node) linkSession(id, peer string) (*session, int) {
	n.mu.Lock()
	s := n.sessions[id]
	n.mu.Unlock()
	if j := s.rankOf(peer); j >= 0 && j != s.self {
		return s, j
	}
	return nil, -1
}

// failPeer handles a closed link to or from peer: frames between the two
// are lost, so every session peer drives is dropped and every wait on peer
// in the others fails.
func (n *Node) failPeer(peer string, err error) {
	var driven []string
	n.mu.Lock()
	for id, s := range n.sessions {
		switch j := s.rankOf(peer); {
		case j < 0:
		case j == s.driver:
			driven = append(driven, id)
		default:
			s.fail(j, &PeerError{Peer: peer, Err: err})
		}
	}
	n.mu.Unlock()
	for _, id := range driven {
		n.dropSession(id, "driver link closed")
	}
}

// serveOpen runs an open frame from peer on the link reader, so no later
// frame of the session can overtake it, and answers with an ack (a reply
// for round 0 with no walks) or an error frame.
func (n *Node) serveOpen(peer, sid string, payload []byte) {
	req, err := decodeOpen(payload)
	if err == nil {
		_, err = n.createSession(sid, req, peer)
	}
	answer, _ := advanceResponse{}.encode() // a reply with no walks always encodes
	if err != nil {
		answer = encodeError(err)
	}
	n.answer(peer, sid, answer)
}

// createSession installs the shard-local state for one detection after
// validating that this shard agrees on membership and holds the same graph.
// driver, a roster member, is the shard that opened it.
func (n *Node) createSession(sid string, req sessionRequest, driver string) (*session, error) {
	ranks, self, err := n.roster()
	if err != nil {
		return nil, err
	}
	d := slices.Index(ranks, driver)
	if d < 0 {
		return nil, fmt.Errorf("%w: session %s: opened by %q, not a member", errBadRequest, sid, driver)
	}
	if len(req.Members) != len(ranks) {
		return nil, fmt.Errorf("%w: session %s: driver sees %d members, shard sees %d", errCluster, sid, len(req.Members), len(ranks))
	}
	for i := range ranks {
		if req.Members[i] != ranks[i] {
			return nil, fmt.Errorf("%w: session %s: member %d is %q here, %q at driver", errCluster, sid, i, ranks[i], req.Members[i])
		}
	}
	g, ok := n.reg.Graph(req.Graph)
	if !ok {
		return nil, fmt.Errorf("%w: session %s: graph %q not registered on shard %d", errCluster, sid, req.Graph, self)
	}
	if g.NumVertices() != req.Vertices || g.NumEdges() != req.Edges {
		return nil, fmt.Errorf("%w: session %s: graph %q is %dv/%de here, %dv/%de at driver — shards must register identical graphs",
			errCluster, sid, req.Graph, g.NumVertices(), g.NumEdges(), req.Vertices, req.Edges)
	}
	assign, err := hashAssign(g.NumVertices(), len(ranks), req.PlacementSeed)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(g, assign, self)
	if err != nil {
		return nil, fmt.Errorf("%w: session %s: %v", errCluster, sid, err)
	}
	s := newSession(n, sid, req.RequestID, g, store, ranks, self, d, req.Walks)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.sessions[sid]; dup {
		return nil, fmt.Errorf("%w: duplicate session %q", errCluster, sid)
	}
	n.sessions[sid] = s
	slog.Debug("cluster session created", "session", sid, "graph", req.Graph, "rank", self, "driver", d)
	return s, nil
}

// dropSession removes a session and unparks anything waiting on it; missing
// ids are fine (best-effort cleanup).
func (n *Node) dropSession(id, reason string) {
	n.mu.Lock()
	s := n.sessions[id]
	delete(n.sessions, id)
	n.mu.Unlock()
	if s != nil {
		s.close()
		slog.Debug("cluster session closed", "session", id, "reason", reason)
	}
}

// postJSON posts v as JSON to url and decodes the 200 answer into out.
func (n *Node) postJSON(ctx context.Context, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: %v", errCluster, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", errCluster, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: post %s: %v", errCluster, url, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if err != nil {
		return fmt.Errorf("%w: post %s: %v", errCluster, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: post %s: %s: %s", errCluster, url, resp.Status, firstLine(respBody))
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("%w: post %s: decode response: %v", errCluster, url, err)
	}
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
