package core

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"cdrw/internal/congest"
	"cdrw/internal/graph"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// errStreamStop unwinds a Detect run whose Stream consumer stopped early.
// It never escapes the package.
var errStreamStop = errors.New("core: detection stream stopped")

// Detector is the reusable, context-aware entry point to CDRW: one option
// surface, one result shape, three engines (WithEngine). Build it once per
// graph and call Detect / DetectCommunity / Stream as often as needed —
// walk engines, the degree-sorted sweep index, sweeper scratch and tracker
// buffers are all retained between calls, so repeat single-seed serving on
// one graph is allocation-free in steady state (BenchmarkDetectorReuse
// pins this at 0 allocs/op on the sparse regime).
//
// Result-ownership contract: DetectCommunity returns a slice owned by the
// Detector, valid until its next call — copy it to retain it. Detect
// returns fresh Result slices, safe to keep.
//
// A Detector is not safe for concurrent use; build one per goroutine (they
// may share the graph, which is immutable).
type Detector struct {
	g        *graph.Graph
	cfg      config
	settings Settings

	// Per-run scratch: runCfg is cfg plus the run's Interrupt hook, runCtx
	// the context the hook polls. Kept as fields (not locals) so the hot
	// single-seed path stays allocation-free.
	runCfg    config
	runCtx    context.Context
	interrupt func() error

	// Reference-engine state, built lazily and retained.
	idx *rw.DegreeIndex
	eng *rw.WalkEngine
	trk rw.CommunityTracker

	// Parallel-engine state, retained across runs: each worker's engine is
	// Reset to every seed it claims instead of rebuilt (all of them sweep
	// over the detector's one degree index), and the trackers, seed-drawing
	// and overlap-resolution scratch rewind in place.
	parWalks    []*rw.WalkEngine
	parTrackers []*rw.CommunityTracker
	parSeeds    []int
	parBlocked  []bool
	parFree     []int
	parErrs     []error
	parOwner    []int

	// Pool-loop scratch, retained.
	assigned []bool
	pool     []int

	// CONGEST-engine state.
	nw          *congest.Network
	lastCongest congest.Metrics
	ranCongest  bool

	// streamFn, when set by Stream, receives each emitted Detection and
	// reports whether to continue.
	streamFn func(Detection) bool
}

// NewDetector resolves opts over the defaults for g and returns a reusable
// detector. The engine defaults to EngineReference; EngineParallel
// additionally requires WithCommunityEstimate.
func NewDetector(g *graph.Graph, opts ...Option) (*Detector, error) {
	cfg := defaultConfig(g.NumVertices())
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(g.NumVertices()); err != nil {
		return nil, err
	}
	if cfg.shared != nil && cfg.shared.Graph() != g {
		return nil, fmt.Errorf("core: shared index was built over a different graph")
	}
	return &Detector{g: g, cfg: cfg, settings: cfg.snapshot()}, nil
}

// Engine returns the engine the detector dispatches to.
func (d *Detector) Engine() Engine { return d.cfg.engine }

// Settings returns the resolved option snapshot of this detector.
func (d *Detector) Settings() Settings { return d.settings }

// CongestMetrics returns the CONGEST rounds/messages consumed by the last
// Detect/DetectCommunity call, and whether the detector has run the CONGEST
// engine at all. Zero-valued until the first congest-engine run.
func (d *Detector) CongestMetrics() (congest.Metrics, bool) {
	return d.lastCongest, d.ranCongest
}

// sharedIndex returns the detector's immutable index bundle: the injected
// one (WithSharedIndex) when present, otherwise a private bundle created on
// first demand. Every engine-level index — the degree-sorted sweep index,
// the CONGEST network's tables — is drawn from this bundle, so injection
// covers all three engines at once.
func (d *Detector) sharedIndex() *rw.SharedIndex {
	if d.cfg.shared == nil {
		d.cfg.shared = rw.NewSharedIndex(d.g)
	}
	return d.cfg.shared
}

// Warm eagerly builds the detector's immutable index tables (degree-sorted
// sweep index, inverse-degree flood table), so the first request on the
// detector does not pay the O(n) builds. With an injected shared index that
// has already been warmed this is free; serving pools warm one bundle and
// hand it to every handle.
func (d *Detector) Warm() { d.sharedIndex().Warm() }

// degreeIndex returns the degree-sorted sweep index from the shared bundle.
func (d *Detector) degreeIndex() *rw.DegreeIndex {
	if d.idx == nil {
		d.idx = d.sharedIndex().Degree()
	}
	return d.idx
}

// walkEngine lazily builds the retained solo walk engine.
func (d *Detector) walkEngine() *rw.WalkEngine {
	if d.eng == nil {
		d.eng = rw.NewWalkEngineWithIndex(d.g, d.degreeIndex())
	}
	return d.eng
}

// network lazily builds the retained CONGEST network. Its metrics
// accumulate across the detector's runs; CongestMetrics reports per-run
// deltas.
func (d *Detector) network() *congest.Network {
	if d.nw == nil {
		d.nw = congest.NewNetworkWithIndex(d.g, d.sharedIndex())
		if d.cfg.transport != nil {
			d.nw.SetFloodTransport(d.cfg.transport)
		}
	}
	return d.nw
}

// beginRun installs ctx into the detector's reused run config and returns
// a pointer to it. The Interrupt hook is a single retained closure over
// d.runCtx, so starting a run allocates nothing.
func (d *Detector) beginRun(ctx context.Context) *config {
	if d.interrupt == nil {
		d.interrupt = func() error {
			if d.runCtx == nil {
				return nil
			}
			return d.runCtx.Err()
		}
	}
	if ctx == context.Background() {
		d.runCtx = nil // nothing can be cancelled; keep the ladder poll free
	} else {
		d.runCtx = ctx
	}
	d.runCfg = d.cfg
	if d.runCtx != nil {
		d.runCfg.mix.Interrupt = d.interrupt
		// The trace rides the context; the lookup is allocation-free and
		// only non-Background contexts can carry one.
		d.runCfg.tr = trace.FromContext(ctx)
	}
	return &d.runCfg
}

// endRun drops the run's context so a long-lived Detector does not pin a
// finished request's context (values, cancel subtree) until the next call.
func (d *Detector) endRun() { d.runCtx = nil }

// DetectCommunity computes the community containing seed s on this
// detector's engine. The reference and parallel engines run the solo
// in-memory walk (a single seed has no parallelism to exploit); the CONGEST
// engine runs the distributed protocol. The returned slice is owned by the
// detector and valid until its next call; CommunityStats.SizesChecked
// counts ladder entries on every engine.
func (d *Detector) DetectCommunity(ctx context.Context, s int) ([]int, CommunityStats, error) {
	n := d.g.NumVertices()
	if s < 0 || s >= n {
		return nil, CommunityStats{}, fmt.Errorf("core: seed %d out of range [0,%d): %w", s, n, graph.ErrVertexOutOfRange)
	}
	if d.cfg.engine == EngineCongest {
		nw := d.network()
		before := nw.Metrics()
		out, cstats, err := congest.DetectCommunityContext(ctx, nw, s, d.settings.CongestConfig())
		d.noteCongest(before)
		if err != nil {
			return nil, cstats.CommunityStats, err
		}
		return out, cstats.CommunityStats, nil
	}
	cfg := d.beginRun(ctx)
	defer d.endRun()
	return detectCommunity(ctx, d.walkEngine(), &d.trk, s, cfg)
}

// ReverifyCommunity cheaply re-checks a previously detected community
// against this detector's (possibly mutated) graph: it replays the
// deterministic walk from seed s for frozenAt steps without any per-step
// sweeps, runs the candidate-size ladder once over the final distribution,
// and reports whether the largest mixing set (with s re-inserted, exactly as
// detection would emit it) still equals community. frozenAt is the
// CommunityStats.FrozenAt of the original detection.
//
// The per-step sweeps dominate detection cost, so skipping all but the last
// makes re-verification an order of magnitude cheaper than re-detection —
// this is what lets a serving cache keep single-seed lines across small
// graph deltas instead of recomputing them cold.
//
// A true result certifies that the mixing set at the freeze step is
// unchanged; it does not replay the stop rule's full trajectory, so callers
// treat it as a cache-promotion check, not a fresh detection. False means
// the cached community is stale (or was a singleton fallback, frozenAt = 0,
// which carries no mixing set to re-check) and must be recomputed.
//
// The replay always runs the in-memory reference walk: all engines produce
// bit-identical mixing sets step for step (the cross-engine equivalence
// invariant), so the check is valid for communities detected on any engine.
// community must be sorted ascending, as detection returns it.
func (d *Detector) ReverifyCommunity(ctx context.Context, s int, community []int, frozenAt int) (bool, error) {
	n := d.g.NumVertices()
	if s < 0 || s >= n {
		return false, fmt.Errorf("core: seed %d out of range [0,%d): %w", s, n, graph.ErrVertexOutOfRange)
	}
	if frozenAt < 1 || frozenAt > d.cfg.maxLen || len(community) == 0 {
		return false, nil
	}
	cfg := d.beginRun(ctx)
	defer d.endRun()
	eng := d.walkEngine()
	if err := eng.Reset(s); err != nil {
		return false, err
	}
	for l := 0; l < frozenAt; l++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		eng.Step()
	}
	cur, err := eng.LargestMixingSet(cfg.minSize, cfg.mix)
	if err != nil {
		return false, err
	}
	if !cur.Found() {
		return false, nil
	}
	// Compare against community with the seed inserted the way the tracker
	// emits it, without materialising the merged set: walk cur.Vertices
	// and community in lockstep, letting the seed slot in at its sorted
	// position.
	i, j := 0, 0
	seedPending := true
	for j < len(community) {
		switch {
		case seedPending && community[j] == s:
			seedPending = false
			if i < len(cur.Vertices) && cur.Vertices[i] == s {
				i++
			}
			j++
		case i < len(cur.Vertices) && cur.Vertices[i] == community[j]:
			i++
			j++
		default:
			return false, nil
		}
	}
	return i == len(cur.Vertices) && !seedPending, nil
}

// Detect partitions the whole graph on this detector's engine: the
// Algorithm 1 pool loop for the reference and CONGEST engines (detectPool,
// batched by WithCongestBatch on the CONGEST engine), the concurrent
// multi-seed run for the parallel engine. Detections stream to the
// WithDetectionObserver callback as they freeze.
func (d *Detector) Detect(ctx context.Context) (*Result, error) {
	switch d.cfg.engine {
	case EngineParallel:
		return d.detectParallel(ctx)
	case EngineCongest:
		nw := d.network()
		before := nw.Metrics()
		ccfg := d.settings.CongestConfig()
		res, err := d.detectPool(ctx, d.cfg.congestBatch, func(ctx context.Context, seeds []int, dst []Detection) ([]Detection, error) {
			dets, err := congest.DetectBatchContext(ctx, nw, seeds, ccfg)
			for _, det := range dets {
				dst = append(dst, Detection{Raw: det.Community, Stats: det.Stats.CommunityStats})
			}
			return dst, err
		})
		d.noteCongest(before)
		return res, err
	default:
		cfg := d.beginRun(ctx)
		defer d.endRun()
		eng := d.walkEngine()
		return d.detectPool(ctx, 1, func(ctx context.Context, seeds []int, dst []Detection) ([]Detection, error) {
			for _, s := range seeds {
				out, stats, err := detectCommunity(ctx, eng, &d.trk, s, cfg)
				if err != nil {
					return dst, err
				}
				// out is the tracker's buffer, overwritten by the next walk.
				dst = append(dst, Detection{Raw: append([]int(nil), out...), Stats: stats})
			}
			return dst, nil
		})
	}
}

// noteCongest records the metrics delta of the congest run that started at
// before.
func (d *Detector) noteCongest(before congest.Metrics) {
	after := d.nw.Metrics()
	d.lastCongest = congest.Metrics{
		Rounds:   after.Rounds - before.Rounds,
		Messages: after.Messages - before.Messages,
	}
	d.ranCongest = true
}

// emit delivers one frozen detection to the observer and stream hooks,
// reporting whether the run should continue.
func (d *Detector) emit(det Detection) bool {
	if d.cfg.detObs != nil {
		d.cfg.detObs(det)
	}
	if d.streamFn != nil {
		return d.streamFn(det)
	}
	return true
}

// Stream runs Detect and yields each Detection the moment its community is
// frozen, as an iter.Seq2 over (Detection, error): detections arrive with a
// nil error, and a run failure arrives as exactly one final (zero
// Detection, non-nil error) pair. Breaking out of the range stops the
// underlying run (reference/congest engines abandon the remaining pool;
// the parallel engine stops emitting an already-computed result) without
// surfacing an error. A batched CONGEST run (WithCongestBatch) freezes a
// super-step's communities together, so they arrive together as soon as
// that super-step completes. The parallel engine freezes all communities
// at overlap resolution, so its detections arrive in a burst at the end.
//
//	for det, err := range d.Stream(ctx) {
//		if err != nil { ... }
//		serve(det)
//	}
func (d *Detector) Stream(ctx context.Context) iter.Seq2[Detection, error] {
	return func(yield func(Detection, error) bool) {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopped := false
		d.streamFn = func(det Detection) bool {
			if stopped {
				return false
			}
			if !yield(det, nil) {
				stopped = true
				cancel()
				return false
			}
			return true
		}
		defer func() { d.streamFn = nil }()
		_, err := d.Detect(sctx)
		if err != nil && !stopped && !errors.Is(err, errStreamStop) {
			yield(Detection{}, err)
		}
	}
}
