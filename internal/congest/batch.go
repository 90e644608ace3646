package congest

import (
	"context"
	"fmt"
	"time"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// This file implements batched multi-source CONGEST detection: several seed
// walks of Algorithm 1 advance through the same communication rounds. The
// protocol instances are independent — in a real execution each link simply
// carries one O(log n)-bit word per walk per round — so the batch costs
// max-over-walks rounds where running the walks one after another costs
// their sum, while every walk's own computation, stop rule, and
// round/message accounting stay bit-identical to a one-lane run of its seed
// (the conformance suite in coreequiv_test.go pins this). detectBatch is the
// package's only detection loop: DetectCommunity is a batch of one seed, and
// Algorithm 1's pool loop, which lives in internal/core, runs one batch per
// super-step. The per-round flooding of all walks is fused into one pass
// over the adjacency arrays, and the load observer receives per-link
// aggregate word counts per shared round (LinkLoad), which is what the
// k-machine converter consumes.

// BatchDetection is one walk's outcome of a DetectBatch run.
type BatchDetection struct {
	// Community is the detected community C_s of the walk's seed, sorted
	// ascending.
	Community []int
	// Stats carries the walk's own statistics — identical, field for field,
	// to what DetectCommunity of the same seed alone would report,
	// including Metrics: the rounds and messages the walk's own protocol
	// consumed. The shared rounds the batch actually took appear in the
	// network's global metrics (their count is the max, not the sum, of the
	// per-walk rounds).
	Stats CommunityStats
}

// DetectBatch runs the distributed Algorithm 1 for every seed concurrently
// in shared communication rounds: all walks build their BFS trees together,
// flood their distributions in the same rounds (one fused pass carrying
// per-seed payloads), and run their mixing-set searches side by side. Each
// walk's result and per-walk cost are bit-identical to DetectCommunity of
// the same seed; only the network's global round count changes — it grows by
// the maximum, not the sum, of the walks' rounds. Duplicate seeds are
// allowed (the walks evolve independently).
func DetectBatch(nw *Network, seeds []int, cfg Config) ([]BatchDetection, error) {
	return DetectBatchContext(context.Background(), nw, seeds, cfg)
}

// DetectBatchContext is DetectBatch with cancellation: the round scheduler
// polls ctx between phases, mid-ladder and mid-binary-search, so a cancelled
// caller unwinds within O(1) shared rounds with ctx.Err(). Rounds simulated
// before the cancellation remain accounted.
func DetectBatchContext(ctx context.Context, nw *Network, seeds []int, cfg Config) ([]BatchDetection, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, s := range seeds {
		if err := nw.checkVertex(s); err != nil {
			return nil, err
		}
	}
	nw.setContext(ctx)
	defer nw.setContext(nil)
	return detectBatch(nw, seeds, cfg)
}

// batchWalk is the per-walk state of a batched run. The walk is live until
// its tracker reports the walk ended.
type batchWalk struct {
	tree    *Tree
	covered []int32
	p, next rw.Dist
	trk     rw.CommunityTracker
}

// detectBatch is the CONGEST detection loop, behind DetectBatchContext and
// DetectCommunityContext (a batch of one); the caller has validated inputs
// and installed the run context.
func detectBatch(nw *Network, seeds []int, cfg Config) ([]BatchDetection, error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	g := nw.Graph()
	n := g.NumVertices()
	nw.beginBatch(len(seeds))
	defer nw.endBatch()

	rule := rw.StopRule{Delta: cfg.Delta, Patience: cfg.Patience, MaxLen: cfg.MaxWalkLength}
	walks := make([]*batchWalk, len(seeds))
	for i, s := range seeds {
		w := &batchWalk{p: make(rw.Dist, n), next: make(rw.Dist, n)}
		w.p[s] = 1
		w.trk.Reset(s, rule)
		walks[i] = w
	}

	// Phase 1: every walk builds its BFS tree; the builds share rounds, so
	// the phase costs max tree depth, not the sum.
	nw.beginPhase()
	for i, w := range walks {
		nw.enterLane(i)
		tree, err := nw.buildTree(seeds[i], cfg.TreeDepthLimit)
		if err != nil {
			nw.endPhase()
			return nil, err
		}
		w.tree = tree
		w.covered = tree.CoveredVertices()
	}
	nw.endPhase()

	threshold, growth := cfg.mixResolved()
	ladder := rw.SizeLadderWithGrowth(cfg.MinCommunitySize, n, growth)
	counts := make([]int32, n)
	active := len(walks)
	// A round started ahead of its step is finished on every return path.
	defer nw.finishFlood()
	started := false // round l started during step l−1's ladder
	for l := 1; active > 0; l++ {
		if err := nw.interrupted(); err != nil {
			return nil, err
		}
		// Flood phase: one shared round advances every live walk's
		// distribution (Algorithm 1 lines 9–11, batched). It is charged
		// here, whether or not its communication started a step early.
		var t0 time.Time
		if nw.tr != nil {
			t0 = time.Now()
		}
		nw.beginPhase()
		accountFlood(nw, walks, counts)
		nw.endPhase()
		if !started {
			nw.startFlood(walks)
		}
		nw.finishFlood()
		swapLive(walks)
		// When no live walk can end at step l, round l+1 is certain and its
		// input p_l is final: start it now, so that its communication
		// overlaps step l's ladder. A round the stop rule could still
		// cancel is never started, so frames, rounds and link words are
		// those of running the two phases in turn.
		started = continueAll(walks, l)
		if started {
			nw.startFlood(walks)
		}

		var t1 time.Time
		if nw.tr != nil {
			t1 = time.Now()
			nw.tr.AddPhase(trace.PhaseFlood, t1.Sub(t0))
		}
		// Search phase: each live walk runs its whole candidate-size ladder;
		// the walks' broadcast/convergecast rounds overlap into shared
		// rounds, so the phase costs the slowest walk's rounds.
		nw.beginPhase()
		for i, w := range walks {
			if w.trk.Done() {
				continue
			}
			nw.enterLane(i)
			cur, err := nw.largestMixingSet(w.tree, w.covered, w.p, ladder, threshold)
			if err != nil {
				nw.endPhase()
				return nil, fmt.Errorf("congest: walk length %d: %w", l, err)
			}
			if w.trk.Observe(l, cur) {
				active--
			}
		}
		nw.endPhase()
		if nw.tr != nil {
			nw.tr.AddPhase(trace.PhaseSweep, time.Since(t1))
		}
	}

	out := make([]BatchDetection, len(walks))
	for i, w := range walks {
		out[i] = BatchDetection{
			Community: w.trk.Community(),
			Stats: CommunityStats{
				CommunityStats: w.trk.Stats(),
				TreeDepth:      w.tree.MaxDepth(),
				Metrics:        nw.laneMetrics(i),
			},
		}
	}
	return out, nil
}

// continueAll reports whether every live walk is certain to continue past
// step l, whatever its ladder finds (rw.CommunityTracker.Continues).
func continueAll(walks []*batchWalk, l int) bool {
	for _, w := range walks {
		if !w.trk.Done() && !w.trk.Continues(l) {
			return false
		}
	}
	return true
}

// swapLive makes every live walk's evolved distribution its current one.
func swapLive(walks []*batchWalk) {
	for _, w := range walks {
		if !w.trk.Done() {
			w.p, w.next = w.next, w.p
		}
	}
}

// batchFlood performs one shared communication round of probability flooding
// (Algorithm 1 lines 9–11) for every live walk: every node holding a walk's
// mass sends p(v)/d(v) to each neighbour, and every node sums what it
// receives; isolated nodes keep their mass. A one-walk run
// (EstimateConductance) floods through it with a single walk; detectBatch
// makes the same calls, with the round's start moved ahead of the previous
// step's ladder when the round is certain.
func batchFlood(nw *Network, walks []*batchWalk, counts []int32) {
	accountFlood(nw, walks, counts)
	nw.startFlood(walks)
	nw.finishFlood()
	swapLive(walks)
}

// accountFlood charges one flood round: each live walk is charged its own
// round and its own per-neighbour messages, while the load observer sees
// the aggregate — link (v,w) carries one word per live walk holding mass
// at v, reported as a single LinkLoad with that multiplicity. counts is
// n-long scratch, all zero between calls.
func accountFlood(nw *Network, walks []*batchWalk, counts []int32) {
	g := nw.Graph()
	observing := nw.loadObs != nil
	for i, w := range walks {
		if w.trk.Done() {
			continue
		}
		nw.enterLane(i)
		nw.beginRound()
		for v, mass := range w.p {
			if mass != 0 && g.Degree(v) > 0 {
				nw.accountMessages(g.Degree(v))
				if observing {
					counts[v]++
				}
			}
		}
	}
	if !observing {
		return
	}
	// All lanes flood in the phase's first shared round.
	loads := nw.phaseLoads[0]
	for v, c := range counts {
		if c == 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			loads = append(loads, LinkLoad{From: int32(v), To: w, Words: c})
		}
		counts[v] = 0
	}
	nw.phaseLoads[0] = loads
}

// floodTile is the gather tile of floodKernel: each worker streams through
// tile-sized slices of the output array (8·tile = 256 KiB of next per tile,
// L2-resident) while reading the share table through the CSR neighbour
// lists.
const floodTile = 1 << 15

// floodKernel is the package's one in-memory flood kernel: it writes every
// frame's Next from its P. The computation is fused and blocked. An
// interleave pass freezes every frame's outgoing shares into rows of
// shareAll (row v holds the k frames' shares p(v)·(1/d(v)) side by side on
// one cache line); then a tiled gather pulls each neighbour list once and
// accumulates every frame from the row its neighbour ids address — k walks
// cost one random-access stream of k-wide rows where the unblocked kernel
// (floodStepReference, kept in floodkernel_test.go) chases two scattered
// streams, p and 1/d, per walk. Each share is the exact product the
// unblocked kernel computes and the accumulation order over neighbours is
// the CSR order, so every walk's evolved distribution is bit-identical to
// flooding it alone.
func (nw *Network) floodKernel(frames []FloodFrame) {
	g := nw.Graph()
	degInv := nw.degInvTable()
	n := g.NumVertices()
	k := len(frames)
	shareAll := nw.floodShareAll(n * k)
	for v := 0; v < n; v++ {
		row := shareAll[v*k : v*k+k]
		dv := degInv[v]
		for j, f := range frames {
			row[j] = f.P[v] * dv
		}
	}
	parallelRanges(n, floodTile, func(lo, hi int) { gatherTile(g, frames, shareAll, lo, hi) })
}

// gatherTile is floodKernel's gather over the vertices [lo, hi). As a
// function of its own rather than a closure it keeps its loop indices and
// bounds in registers: go build -gcflags=-S shows no stack traffic in its
// per-vertex and per-neighbour loops.
func gatherTile(g *graph.Graph, frames []FloodFrame, shareAll []float64, lo, hi int) {
	k := len(frames)
	for u := lo; u < hi; u++ {
		ns := g.Neighbors(u)
		for j := range frames {
			sum := 0.0
			for _, nb := range ns {
				sum += shareAll[int(nb)*k+j]
			}
			if len(ns) == 0 {
				sum = frames[j].P[u] // isolated nodes keep their mass
			}
			frames[j].Next[u] = sum
		}
	}
}
