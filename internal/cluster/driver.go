package cluster

import (
	"context"
	"fmt"
	"strconv"
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
// Failure is bounded and typed: every frame write and every wait carries a
// deadline, a closed link fails every wait on its peer at once, and a dead
// peer surfaces as a *PeerError (502 at the HTTP layer) within the peer
// deadline instead of wedging the round protocol.
func (n *Node) Detect(ctx context.Context, name string, opts ...core.Option) (*core.Result, core.Settings, bool, error) {
	det, settings, cleanup, handled, err := n.newDriver(ctx, name, opts)
	if !handled || err != nil {
		return nil, settings, handled, err
	}
	defer cleanup()
	res, err := det.Detect(ctx)
	return res, settings, true, err
}

// DetectCommunity is Detect for one seed.
func (n *Node) DetectCommunity(ctx context.Context, name string, seed int, opts ...core.Option) ([]int, core.CommunityStats, core.Settings, bool, error) {
	det, settings, cleanup, handled, err := n.newDriver(ctx, name, opts)
	if !handled || err != nil {
		return nil, core.CommunityStats{}, settings, handled, err
	}
	defer cleanup()
	community, stats, err := det.DetectCommunity(ctx, seed)
	return community, stats, settings, true, err
}

// newDriver resolves the request, opens a session on every shard and
// returns a Detector whose flood rounds run over the cluster, with the
// cleanup that ends the sessions. handled=false (with no error) means the
// request is not cluster-executable.
func (n *Node) newDriver(ctx context.Context, name string, opts []core.Option) (*core.Detector, core.Settings, func(), bool, error) {
	g, merged, settings, err := n.reg.Resolve(name, opts...)
	if err != nil {
		return nil, core.Settings{}, nil, true, err
	}
	if settings.Engine != core.EngineCongest {
		return nil, core.Settings{}, nil, false, nil
	}
	ranks, self, err := n.roster()
	if err != nil {
		return nil, settings, nil, true, err
	}
	assign, err := hashAssign(g.NumVertices(), len(ranks), n.cfg.PlacementSeed)
	if err != nil {
		return nil, settings, nil, true, err
	}

	sid := fmt.Sprintf("r%d-%d", self, n.seq.Add(1))
	sreq := sessionRequest{
		Graph:         name,
		Members:       ranks,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		PlacementSeed: n.cfg.PlacementSeed,
		Walks:         max(settings.CongestBatch, 1),
		RequestID:     trace.FromContext(ctx).ID(),
	}
	local, err := n.createSession(sid, sreq, n.cfg.Advertise)
	if err != nil {
		return nil, settings, nil, true, err
	}
	// cleanup runs for the whole detection — success, engine error or a
	// failed open alike — so no error path leaves session state on any
	// shard: the driver's own session drops, and each remote one closes on
	// its close frame or, should that write fail, on its link's close.
	cleanup := func() {
		n.dropSession(sid, "detection finished")
		for m, peer := range ranks {
			if m != self {
				size, _ := n.send(peer, sid, closePayload)
				n.metrics.addCoord(int64(size), 0)
			}
		}
	}
	// Every remote session must exist before round 1: a shard's first
	// shares reach a third shard on a link the open did not travel on.
	open := encodeOpen(sreq)
	remote := func(m int) bool { return m != self }
	for m, peer := range ranks {
		if remote(m) {
			size, err := n.send(peer, sid, open)
			if err != nil {
				cleanup()
				return nil, settings, nil, true, err
			}
			n.metrics.addCoord(int64(size), 0)
		}
	}
	if _, err := local.collect(ctx, boxReplies, 0, remote, n.peerTimeout); err != nil {
		cleanup()
		return nil, settings, nil, true, err
	}

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
		return nil, settings, nil, true, err
	}
	return det, settings, cleanup, true, nil
}

// recordShardSpans emits one span per shard rank into the request trace,
// covering the whole detection with the rank's accumulated freeze/pull/
// gather nanoseconds as attributes, and books the summed wait for peers'
// share frames as the peer_pull phase (nested inside the driver's own
// phases: the waits happen while the driver waits on replies, or runs the
// ladder when it started the round before it, so peer_pull explains time
// rather than adding to the request total).
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
