package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/trace"
)

// Detect implements serve.ClusterBackend: a full pool-loop detection
// executed over the cluster. Any shard can drive it — the driver runs the
// unmodified CONGEST engine and only flood rounds touch the network — and
// the merged Result is bit-identical to a single-process run of the same
// resolved settings, so responses are byte-comparable across deployment
// modes. Non-CONGEST engines return handled=false and fall back to the
// local pools (in-memory engines have no distributed realisation to route).
//
// Failure is bounded and typed: every peer RPC carries a deadline, a
// heartbeat goroutine per remote shard cancels the run the moment a peer
// misses heartbeatMisses beats, and a dead peer surfaces as a *PeerError
// (502 at the HTTP layer) within the peer deadline instead of wedging the
// round protocol.
func (n *Node) Detect(ctx context.Context, name string, opts ...core.Option) (*core.Result, core.Settings, bool, error) {
	det, dctx, settings, cleanup, handled, err := n.newDriver(ctx, name, opts)
	if !handled || err != nil {
		return nil, settings, handled, err
	}
	defer cleanup()
	res, err := det.Detect(dctx)
	return res, settings, true, driverErr(dctx, err)
}

// DetectCommunity is Detect for one seed.
func (n *Node) DetectCommunity(ctx context.Context, name string, seed int, opts ...core.Option) ([]int, core.CommunityStats, core.Settings, bool, error) {
	det, dctx, settings, cleanup, handled, err := n.newDriver(ctx, name, opts)
	if !handled || err != nil {
		return nil, core.CommunityStats{}, settings, handled, err
	}
	defer cleanup()
	community, stats, err := det.DetectCommunity(dctx, seed)
	return community, stats, settings, true, driverErr(dctx, err)
}

// driverErr substitutes the cancellation cause for the engine's bare
// context error when the heartbeat loop aborted the run: the caller should
// see the typed peer failure, not "context canceled".
func driverErr(dctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cause := context.Cause(dctx); cause != nil &&
		!errors.Is(cause, context.Canceled) && !errors.Is(cause, context.DeadlineExceeded) {
		return cause
	}
	return err
}

// newDriver resolves the request, establishes a session on every shard and
// returns a Detector whose flood rounds run over the cluster, plus the
// context the detection must run under (cancelled with a *PeerError cause
// when a peer dies mid-run). handled=false (with no error) means the
// request is not cluster-executable.
func (n *Node) newDriver(ctx context.Context, name string, opts []core.Option) (*core.Detector, context.Context, core.Settings, func(), bool, error) {
	g, merged, settings, err := n.reg.Resolve(name, opts...)
	if err != nil {
		return nil, nil, core.Settings{}, nil, true, err
	}
	if settings.Engine != core.EngineCongest {
		return nil, nil, core.Settings{}, nil, false, nil
	}
	ranks, self, err := n.roster()
	if err != nil {
		return nil, nil, settings, nil, true, err
	}
	assign, err := hashAssign(g.NumVertices(), len(ranks), n.cfg.PlacementSeed)
	if err != nil {
		return nil, nil, settings, nil, true, err
	}

	sid := fmt.Sprintf("r%d-%d", self, n.seq.Add(1))
	sreq := sessionRequest{
		Session:       sid,
		Graph:         name,
		Members:       ranks,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		PlacementSeed: n.cfg.PlacementSeed,
		Walks:         max(settings.CongestBatch, 1),
	}
	local, err := n.createSession(sreq, trace.FromContext(ctx).ID())
	if err != nil {
		return nil, nil, settings, nil, true, err
	}
	dctx, dcancel := context.WithCancelCause(ctx)
	stopHB := make(chan struct{})
	// The remote sessions open concurrently; created marks the ranks whose
	// session exists, and the first failure in rank order is returned.
	created := make([]bool, len(ranks))
	errs := make([]error, len(ranks))
	eachPeer(ranks, self, func(m int, peer string) {
		var coord int64
		cctx, ccancel := context.WithTimeout(ctx, n.peerTimeout)
		_, err := n.postJSON(cctx, peer+"/cluster/sessions", sreq, nil, &coord)
		ccancel()
		n.metrics.addCoord(coord, 0)
		if err != nil {
			errs[m] = &PeerError{Peer: peer, Err: err}
			return
		}
		created[m] = true
	})
	// cleanup is deferred by the callers for the whole detection — success,
	// engine error or heartbeat abort alike — so no error path leaves
	// session state (parked waiters, undelivered frames) on any shard. The
	// per-shard reaper is only the backstop for a driver that dies before
	// this runs.
	cleanup := func() {
		close(stopHB)
		dcancel(context.Canceled)
		n.dropSession(sid)
		eachPeer(ranks, self, func(m int, peer string) {
			if created[m] {
				cctx, cancel := context.WithTimeout(context.Background(), n.peerTimeout)
				_ = n.deleteSession(cctx, peer, sid)
				cancel()
			}
		})
	}
	for _, err := range errs {
		if err != nil {
			cleanup()
			return nil, nil, settings, nil, true, err
		}
	}

	// Per-peer session heartbeats: each remote shard must answer a beat
	// every heartbeat interval; heartbeatMisses consecutive failures evict
	// the peer and abort the detection with the typed cause. A live peer
	// that answers non-200 (it lost the session state) aborts immediately.
	for m, peer := range ranks {
		if m == self {
			continue
		}
		go n.sessionHeartbeat(dctx, stopHB, peer, sid, dcancel)
	}
	go func() { // the driver's own shard is heartbeated in-process
		ticker := time.NewTicker(n.hbInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-dctx.Done():
				return
			case <-ticker.C:
				local.touch()
			}
		}
	}()

	tr := &roundTransport{node: n, sid: sid, assign: assign, peers: ranks, self: self, local: local}
	if reqTrace := trace.FromContext(ctx); reqTrace != nil {
		// Traced request: collect per-shard stage timings across the rounds
		// and fold them into the trace when the detection finishes, so the
		// driver's trace carries one span per rank — the stitched view.
		tr.stats = make([]shardStat, len(ranks))
		started := time.Now()
		inner := cleanup
		cleanup = func() {
			recordShardSpans(reqTrace, tr, started)
			inner()
		}
	}
	det, err := core.NewDetector(g, append(merged, core.WithCongestTransport(tr))...)
	if err != nil {
		cleanup()
		return nil, nil, settings, nil, true, err
	}
	return det, dctx, settings, cleanup, true, nil
}

// recordShardSpans emits one span per shard rank into the request trace,
// covering the whole detection with the rank's accumulated freeze/pull/
// gather nanoseconds as attributes, and books the summed wait for peers'
// share frames as the peer_pull phase (nested inside flood: the waits
// happen while the driver waits on replies, so peer_pull explains flood
// time rather than adding to the request total).
func recordShardSpans(t *trace.Trace, rt *roundTransport, started time.Time) {
	total := time.Since(started)
	var pullNS int64
	for m, st := range rt.stats {
		if st.rounds == 0 {
			continue
		}
		pullNS += st.pullNS
		t.AddSpan("shard", m, started, total,
			trace.Attr{Key: "freeze_ns", Value: strconv.FormatInt(st.freezeNS, 10)},
			trace.Attr{Key: "pull_ns", Value: strconv.FormatInt(st.pullNS, 10)},
			trace.Attr{Key: "gather_ns", Value: strconv.FormatInt(st.gatherNS, 10)},
			trace.Attr{Key: "rounds", Value: strconv.Itoa(st.rounds)})
	}
	if pullNS > 0 {
		t.AddPhase(trace.PhasePeerPull, time.Duration(pullNS))
	}
}

// sessionHeartbeat beats one remote shard's session until stopped, evicting
// the peer and cancelling the detection after heartbeatMisses consecutive
// transport failures.
func (n *Node) sessionHeartbeat(dctx context.Context, stop <-chan struct{}, peer, sid string, abort context.CancelCauseFunc) {
	ticker := time.NewTicker(n.hbInterval)
	defer ticker.Stop()
	miss := 0
	for {
		select {
		case <-stop:
			return
		case <-dctx.Done():
			return
		case <-ticker.C:
		}
		hctx, cancel := context.WithTimeout(context.Background(), n.peerTimeout)
		var coord int64
		status, err := n.postJSON(hctx, peer+"/cluster/sessions/"+sid+"/heartbeat", heartbeatRequest{Session: sid}, nil, &coord)
		cancel()
		n.metrics.addCoord(coord, 0)
		if err == nil {
			miss = 0
			continue
		}
		if status != 0 {
			// The peer is alive but rejected the beat: our session state is
			// gone there (reaped, evicted, restarted). Unrecoverable.
			abort(&PeerError{Peer: peer, Err: err})
			return
		}
		if miss++; miss >= heartbeatMisses {
			n.evict(peer, "missed session heartbeats")
			abort(&PeerError{Peer: peer, Err: err})
			return
		}
	}
}

// eachPeer runs fn for every rank but self, concurrently, and waits for all
// of them.
func eachPeer(ranks []string, self int, fn func(m int, peer string)) {
	var wg sync.WaitGroup
	for m, peer := range ranks {
		if m != self {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(m, peer)
			}()
		}
	}
	wg.Wait()
}

// deleteSession tears one remote session down, best-effort.
func (n *Node) deleteSession(ctx context.Context, peer, sid string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/cluster/sessions/"+sid, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
