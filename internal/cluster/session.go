package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cdrw/internal/graph"
)

// session is one detection's shard-local state. Sessions are almost
// stateless: each advance carries the full owned support, so the only state
// crossing rounds is the round counter and the frames the link readers have
// delivered but no round has taken yet.
//
// The round protocol is deadlock-free by per-link FIFO order. A shard that
// receives its round-r advance writes its share frames to every bordering
// peer before it waits for any, and a link reader only files frames into
// mailboxes, so every share frame a gather waits for arrives. A shard
// replies after its gather and the driver starts round r+1 after every
// reply of round r, so on every link the frames of round r precede those
// of round r+1: a mailbox slot holds at most one frame per sender.
//
// Lifecycle: the driver heartbeats every session it opened at the cluster's
// heartbeat interval; lastBeat records the latest heartbeat or advance, and
// the node's reaper drops sessions whose driver has gone silent past the
// TTL. close() — reached via DELETE, eviction, Stop or the reaper — unparks
// every waiter immediately.
type session struct {
	node      *Node
	id        string
	g         *graph.Graph
	store     *Store
	peers     []string // rank-ordered advertise URLs
	self      int
	walks     int    // most walks one advance may carry
	requestID string // the driver's request id, for round logs

	lastBeat atomic.Int64 // unix nanos of the last heartbeat or advance

	// advanceMu serialises rounds: the driver's barrier means at most one
	// advance is ever in flight per session, but the lock keeps a confused
	// driver from corrupting state.
	advanceMu sync.Mutex
	round     int // last completed round

	// The mailbox the link readers fill: per kind (shares, replies) and
	// sender rank a one-frame slot, and per sender the error that fails
	// every wait on it (a closed link, an error frame, a protocol breach),
	// announced by closing gone.
	box       [2][]chan *advanceResponse
	mu        sync.Mutex
	failed    []error
	gone      []chan struct{}
	closed    chan struct{}
	closeOnce sync.Once

	// scratch, reused across rounds (advanceMu makes them single-writer)
	share []float64
	iso   []float64
	mark  []int32
}

// Mailbox kinds.
const (
	boxShares = iota
	boxReplies
)

func newSession(node *Node, id, requestID string, g *graph.Graph, store *Store, peers []string, self, walks int) *session {
	n := g.NumVertices()
	s := &session{
		node:      node,
		id:        id,
		g:         g,
		store:     store,
		peers:     peers,
		self:      self,
		walks:     max(walks, 1),
		requestID: requestID,
		failed:    make([]error, len(peers)),
		closed:    make(chan struct{}),
		share:     make([]float64, n),
		iso:       make([]float64, n),
	}
	for range peers {
		s.box[boxShares] = append(s.box[boxShares], make(chan *advanceResponse, 1))
		s.box[boxReplies] = append(s.box[boxReplies], make(chan *advanceResponse, 1))
		s.gone = append(s.gone, make(chan struct{}))
	}
	s.touch()
	return s
}

// touch records driver liveness (heartbeats and advances both count).
func (s *session) touch() { s.lastBeat.Store(time.Now().UnixNano()) }

// idle reports how long the driver has been silent.
func (s *session) idle() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastBeat.Load())
}

// close tears the session down: every parked waiter returns immediately
// with a cluster error. Idempotent.
func (s *session) close() { s.closeOnce.Do(func() { close(s.closed) }) }

// rankOf returns peer's rank in the session, or -1 (also for no session).
func (s *session) rankOf(peer string) int {
	if s == nil {
		return -1
	}
	for j, p := range s.peers {
		if p == peer {
			return j
		}
	}
	return -1
}

// maxFrameBytes bounds a frame's payload from rank j: the codec header and
// trailer plus, for each of the session's walks, an entry count and one
// entry — a vertex delta of at most five bytes and eight float bytes — per
// vertex the sender may name: this shard's owned vertices in an advance,
// the sender's own in shares and replies. An error frame is smaller.
func (s *session) maxFrameBytes(j int) int64 {
	names := max(s.store.ownedBy[s.self], s.store.ownedBy[j])
	perWalk := binary.MaxVarintLen64 + names*(binary.MaxVarintLen32+8)
	return int64(max(2+5*binary.MaxVarintLen64+s.walks*perWalk, 2+3*binary.MaxVarintLen64+maxErrorText))
}

// deliver files one frame from rank from: an advance starts on its own
// goroutine, shares and replies wait in their mailbox slot, and an error
// frame or a frame for a full slot fails every wait on the sender.
func (s *session) deliver(from int, payload []byte, size int64) {
	var resp advanceResponse
	var err error
	kind := boxShares
	switch payload[0] {
	case advanceMagic:
		s.node.linkWG.Add(1)
		go s.serveAdvance(from, payload)
		return
	case shareMagic:
		if resp.Round, resp.Support, err = decodeShares(payload); err == nil {
			err = s.checkHomed(resp.Support, from)
		}
		if err == nil {
			s.node.metrics.addPull(from, s.self, size, entries(resp.Support))
		}
	case advanceReplyMagic:
		kind = boxReplies
		if resp, err = decodeAdvanceReply(payload); err == nil {
			err = s.checkHomed(resp.Support, from)
		}
		if err == nil {
			s.node.metrics.addCoord(size, entries(resp.Support))
		}
	case errorMagic:
		var re *remoteError
		if re, err = decodeError(payload); err == nil {
			err = re
		}
	default:
		err = fmt.Errorf("%w: unknown frame magic %#x", errCluster, payload[0])
	}
	if err == nil {
		select {
		case s.box[kind][from] <- &resp:
			return
		default:
			err = fmt.Errorf("%w: round %d frame before the last was read", errCluster, resp.Round)
		}
	}
	s.fail(from, &PeerError{Peer: s.peers[from], Err: err})
}

// checkHomed rejects a frame from rank j naming a vertex not homed on j: a
// shard sends shares of, and replies for, only its own vertices.
func (s *session) checkHomed(walks [][]entry, j int) error {
	home := s.store.assign.Home
	for _, walk := range walks {
		for _, e := range walk {
			if int(e.V) >= len(home) || home[e.V] != j {
				return fmt.Errorf("%w: session %s: vertex %d is not homed on rank %d", errCluster, s.id, e.V, j)
			}
		}
	}
	return nil
}

// fail dooms every wait on rank j with err (the first cause sticks).
func (s *session) fail(j int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed[j] == nil {
		s.failed[j] = err
		close(s.gone[j])
	}
}

// collect waits until every rank want accepts has filed its frame of the
// kind for round, and takes them. It fails at once when a wanted rank
// fails or the session closes, and with a *PeerError naming a missing rank
// once limit passes.
func (s *session) collect(ctx context.Context, kind, round int, want func(int) bool, limit time.Duration) ([]*advanceResponse, error) {
	got := make([]*advanceResponse, len(s.peers))
	timeout := time.NewTimer(limit)
	defer timeout.Stop()
	for j := range got {
		if !want(j) {
			continue
		}
		select {
		case got[j] = <-s.box[kind][j]:
			if got[j].Round == round {
				continue
			}
			return nil, &PeerError{Peer: s.peers[j], Err: fmt.Errorf("%w: session %s: round %d frame while waiting for round %d", errCluster, s.id, got[j].Round, round)}
		case <-s.gone[j]:
			s.mu.Lock()
			defer s.mu.Unlock()
			return nil, s.failed[j]
		case <-s.closed:
			return nil, fmt.Errorf("%w: session %s: closed while waiting for round %d", errCluster, s.id, round)
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: session %s: waiting for round %d: %w", errCluster, s.id, round, ctx.Err())
		case <-timeout.C:
			return nil, &PeerError{Peer: s.peers[j], Err: fmt.Errorf("no round %d frame within %v", round, limit)}
		}
	}
	return got, nil
}

// serveAdvance runs the advance frame the driver at rank driver sent and
// answers with the reply frame, or with an error frame carrying the
// failure's status class.
func (s *session) serveAdvance(driver int, payload []byte) {
	defer s.node.linkWG.Done()
	req, err := decodeAdvance(payload)
	var resp advanceResponse
	if err != nil {
		err = fmt.Errorf("%w: bad advance frame: %v", errBadRequest, err)
	} else {
		resp, err = s.advance(context.Background(), req)
	}
	if err == nil {
		payload, err = resp.encode()
	}
	if err != nil {
		payload = encodeError(err)
	} else if s.requestID != "" {
		// A traced detection's session carries the driver's request id;
		// logging it ties this shard's round work to the driver's trace.
		slog.Debug("cluster round advanced", "request_id", s.requestID, "session", s.id,
			"round", req.Round, "freeze_ns", resp.T.FreezeNS, "pull_ns", resp.T.PullNS, "gather_ns", resp.T.GatherNS)
	}
	// A lost reply fails the driver's wait through the link's close.
	_, _ = s.node.send(s.peers[driver], s.id, payload)
}

// advance executes one flood round for this shard: freeze outgoing boundary
// shares and write them to the bordering peers, wait for the share frames
// this shard's owned vertices read, then gather next-step mass for every
// owned vertex in CSR neighbour order — bit-identical to the in-memory
// kernel's arithmetic.
func (s *session) advance(ctx context.Context, req advanceRequest) (advanceResponse, error) {
	s.advanceMu.Lock()
	defer s.advanceMu.Unlock()
	select {
	case <-s.closed:
		return advanceResponse{}, fmt.Errorf("%w: session %s: closed", errCluster, s.id)
	default:
	}
	s.touch()
	if len(req.Support) > s.walks {
		return advanceResponse{}, fmt.Errorf("%w: session %s: advance carries %d walks, session allows %d", errBadRequest, s.id, len(req.Support), s.walks)
	}
	if req.Round != s.round+1 {
		return advanceResponse{}, fmt.Errorf("%w: session %s: advance round %d after round %d", errCluster, s.id, req.Round, s.round)
	}
	walks := len(req.Support)
	start := time.Now()

	// Freeze: per peer with a shared link, the shares of our boundary
	// vertices that carry mass this round, written as one frame. Shares
	// are frozen as p(v)·(1/d(v)) — the exact product the in-memory kernel
	// computes.
	payloads, err := s.freeze(req)
	if err != nil {
		return advanceResponse{}, err
	}
	for j, shares := range payloads {
		if shares == nil {
			continue
		}
		payload, err := encodeShares(req.Round, shares)
		if err == nil {
			_, err = s.node.send(s.peers[j], s.id, payload)
		}
		if err != nil {
			return advanceResponse{}, err
		}
	}
	frozenAt := time.Now()

	// Wait for the share frames of every peer we share a boundary with.
	remote, err := s.collect(ctx, boxShares, req.Round, s.store.NeedsPull, s.node.peerTimeout)
	if err != nil {
		return advanceResponse{}, err
	}
	for j, m := range remote {
		if m != nil && len(m.Support) != walks {
			return advanceResponse{}, &PeerError{Peer: s.peers[j], Err: fmt.Errorf("%w: session %s: round %d shares carry %d walks, want %d", errCluster, s.id, req.Round, len(m.Support), walks)}
		}
	}
	pulledAt := time.Now()

	// Gather: next[u] = Σ share(w) over u's CSR neighbour order; isolated
	// vertices keep their mass.
	resp := advanceResponse{Round: req.Round, Support: make([][]entry, walks)}
	for w := 0; w < walks; w++ {
		s.mark = s.mark[:0]
		for _, e := range req.Support[w] {
			if err := s.checkOwned(e.V); err != nil {
				return advanceResponse{}, err
			}
			v := int(e.V)
			if s.g.Degree(v) == 0 {
				s.iso[v] = e.S
			} else {
				s.share[v] = e.S * s.store.degInv[v]
			}
			s.mark = append(s.mark, e.V)
		}
		for _, m := range remote {
			if m == nil {
				continue
			}
			for _, e := range m.Support[w] {
				s.share[e.V] = e.S
				s.mark = append(s.mark, e.V)
			}
		}
		var out []entry
		for _, u := range s.store.owned {
			uu := int(u)
			var sum float64
			if s.g.Degree(uu) == 0 {
				sum = s.iso[uu]
			} else {
				for _, nb := range s.g.Neighbors(uu) {
					sum += s.share[nb]
				}
			}
			if sum != 0 {
				out = append(out, entry{V: u, S: sum})
			}
		}
		resp.Support[w] = out
		for _, v := range s.mark {
			s.share[v] = 0
			s.iso[v] = 0
		}
	}
	s.round = req.Round
	// Stage attribution: histograms on this shard's /metrics, exact
	// nanoseconds back to the driver for its trace's per-shard spans.
	freeze, pull := frozenAt.Sub(start), pulledAt.Sub(frozenAt)
	gather := time.Since(pulledAt)
	s.node.metrics.observeRoundStages(freeze, pull, gather)
	resp.T = advanceTiming{
		FreezeNS: freeze.Nanoseconds(),
		PullNS:   pull.Nanoseconds(),
		GatherNS: gather.Nanoseconds(),
	}
	return resp, nil
}

// freeze collects, per peer, the non-zero boundary shares of every walk.
// Entries come out in boundary-list order — ascending vertex id — which the
// binary codec's delta coding relies on.
//
// s.share doubles as the mass scratch here. The aliasing is safe because of
// a zero-in/zero-out invariant: advance's gather phase (the other writer)
// runs strictly after freeze returns and restores every touched slot to 0
// before finishing the round, and freeze itself unmarks each walk's support
// before moving to the next, so the buffer is all-zero whenever either
// phase starts.
func (s *session) freeze(req advanceRequest) ([][][]entry, error) {
	n := s.g.NumVertices()
	walks := len(req.Support)
	for _, sup := range req.Support {
		for _, e := range sup {
			if e.V < 0 || int(e.V) >= n {
				return nil, fmt.Errorf("%w: session %s: support vertex %d out of range", errCluster, s.id, e.V)
			}
		}
	}
	payloads := make([][][]entry, len(s.peers))
	scratch := s.share
	for j := range s.peers {
		if j == s.self || len(s.store.Boundary(j)) == 0 {
			continue
		}
		shares := make([][]entry, walks)
		for w := 0; w < walks; w++ {
			// Mass-mark this walk's support, emit its boundary shares, unmark.
			for _, e := range req.Support[w] {
				scratch[e.V] = e.S
			}
			var out []entry
			for _, v := range s.store.Boundary(j) {
				if mass := scratch[v]; mass != 0 {
					out = append(out, entry{V: v, S: mass * s.store.degInv[v]})
				}
			}
			for _, e := range req.Support[w] {
				scratch[e.V] = 0
			}
			shares[w] = out
		}
		payloads[j] = shares
	}
	return payloads, nil
}

// checkOwned rejects walk state routed to the wrong owner.
func (s *session) checkOwned(v int32) error {
	if v < 0 || int(v) >= len(s.store.assign.Home) || s.store.assign.Home[v] != s.store.rank {
		return fmt.Errorf("%w: session %s: vertex %d not owned by rank %d", errCluster, s.id, v, s.store.rank)
	}
	return nil
}
