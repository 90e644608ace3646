// Package core implements CDRW (Community Detection by Random Walks),
// Algorithm 1 of Fathi, Molla & Pandurangan, "Efficient Distributed
// Community Detection in the Stochastic Block Model" (ICDCS 2019).
//
// This package is the reference engine: it evolves the walk's probability
// distribution exactly (as the paper's own simulations do) and runs the
// largest-mixing-set search in memory. The CONGEST message-passing
// realisation of the same algorithm lives in internal/congest and is
// cross-checked against this one.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"cdrw/internal/congest"
	"cdrw/internal/graph"
	"cdrw/internal/rw"
	"cdrw/internal/trace"
)

// DefaultDelta is the stop-rule slack used when the caller supplies no
// conductance estimate: the algorithm stops once the largest mixing set
// grows by less than a factor (1+δ) per step. The paper sets δ = Φ_G; for
// PPM inputs use gen.PPMConfig.ExpectedConductance. 0.1 is a conservative
// stand-in that works across the paper's parameter grid because the
// pre-convergence growth rate is Θ(d) = Θ(log n) per step, far above 1+δ.
const DefaultDelta = 0.1

type config struct {
	delta      float64
	minSize    int
	maxLen     int
	patience   int
	seed       uint64
	mix        rw.MixOptions
	denseSweep bool
	observer   func(StepTiming)

	// Unified-surface fields (see options.go).
	engine       Engine
	communities  int             // parallel engine's r estimate (0 = unset)
	workers      int             // congest per-round parallelism
	treeDepth    int             // congest BFS depth limit (negative = unbounded)
	congestBatch int             // congest batched-pool size (≤ 1 = sequential)
	detObs       func(Detection) // WithDetectionObserver streaming callback
	shared       *rw.SharedIndex // WithSharedIndex injection (nil = private)

	// transport is WithCongestTransport's pluggable flood-round transport,
	// installed on the CONGEST network (nil = in-memory kernels).
	transport congest.FloodTransport

	// tr is the run's request trace, looked up from the context at
	// beginRun (nil = untraced). Like observer and transport it never
	// enters Settings or fingerprints: it cannot change results, only
	// attribute their time.
	tr *trace.Trace
}

// Option customises a CDRW run.
type Option func(*config)

// WithDelta sets the stop parameter δ of Algorithm 1 line 18 (paper: the
// graph conductance Φ_G).
func WithDelta(delta float64) Option {
	return func(c *config) { c.delta = delta }
}

// WithMinCommunitySize sets R, the initial candidate mixing-set size
// (Algorithm 1 line 6; the paper assumes communities have size ≥ log n and
// initialises R = log n).
func WithMinCommunitySize(r int) Option {
	return func(c *config) { c.minSize = r }
}

// WithMaxWalkLength caps the walk length (Algorithm 1 line 8 runs for
// O(log n) steps; the default is 4·⌈log₂ n⌉+4).
func WithMaxWalkLength(l int) Option {
	return func(c *config) { c.maxLen = l }
}

// WithPatience sets how many consecutive stalled steps trigger the stop rule
// (the paper stops at the first step whose mixing set fails to grow by
// (1+δ); patience 1 reproduces that; larger values tolerate transient
// plateaus before the community is reached).
func WithPatience(p int) Option {
	return func(c *config) { c.patience = p }
}

// WithSeed fixes the RNG seed used for pool sampling, making a Detect run
// fully reproducible.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithMixingThreshold overrides the 1/2e mixing-condition bound (ablation
// studies only; the default is the paper's constant).
func WithMixingThreshold(threshold float64) Option {
	return func(c *config) { c.mix.Threshold = threshold }
}

// WithGrowthFactor overrides the 1+1/8e candidate-size growth factor
// (ablation studies only; the default is the paper's constant).
func WithGrowthFactor(growth float64) Option {
	return func(c *config) { c.mix.Growth = growth }
}

// WithDenseSweep forces the dense mixing-set sweep on every step instead of
// the sparse-aware engine sweep: one O(n) scan of p extracts the support,
// then the same bracket-and-count ladder runs over it
// (WalkEngine.LargestMixingSetDense). The two produce bit-identical
// communities; this option exists as a benchmark baseline and a
// cross-check, exactly like WalkEngine.SetDenseThreshold(0) for the walk
// kernel.
func WithDenseSweep() Option {
	return func(c *config) { c.denseSweep = true }
}

// StepTiming is one walk step's diagnostics as seen by a WithStepObserver
// callback: which seed, which step, the support size (-1 once the engine's
// dense kernel has taken over), whether the mixing-set sweep took the sparse
// fast path, and the wall time of the step and of the sweep.
type StepTiming struct {
	// Seed is the walk's source vertex.
	Seed int
	// Step is the walk length after this step (1-based).
	Step int
	// Support is the walk's support size, or -1 in the dense regime.
	Support int
	// SparseSweep reports whether the mixing-set sweep took the engine's
	// frontier as its support (false: the dense path, which first extracts
	// the support with one O(n) scan of p).
	SparseSweep bool
	// StepNS and SweepNS are the durations of the walk step and of the
	// whole candidate-size sweep, in nanoseconds.
	StepNS, SweepNS int64
}

// WithStepObserver registers fn to receive per-step timing and sweep-mode
// diagnostics from every detection walk. DetectParallel invokes fn from one
// goroutine per live walk, so fn must be safe for concurrent use. Timing is
// only measured when an observer is installed; the default hot path takes
// no clock readings.
func WithStepObserver(fn func(StepTiming)) Option {
	return func(c *config) { c.observer = fn }
}

func defaultConfig(n int) config {
	logN := int(math.Ceil(math.Log2(float64(n + 1))))
	if logN < 1 {
		logN = 1
	}
	return config{
		delta:        DefaultDelta,
		minSize:      logN,
		maxLen:       4*logN + 4,
		patience:     1,
		seed:         1,
		engine:       EngineReference,
		workers:      1,
		treeDepth:    -1,
		congestBatch: 1,
	}
}

// CommunityStats records per-seed diagnostics of a community computation.
// It is the engine-independent rw.CommunityStats, filled by the shared stop
// rule (rw.CommunityTracker) on every engine.
type CommunityStats = rw.CommunityStats

// Detection records one pool iteration of Algorithm 1: the seed drawn from
// the pool, the community detected for it on the full graph, and the subset
// of that community that was still unassigned (which is what leaves the
// pool).
type Detection struct {
	// Raw is the community C_s exactly as Algorithm 1 computes it for the
	// seed. The paper's F-score (§IV) is evaluated on this set. Raw sets of
	// different seeds may overlap.
	Raw []int
	// Assigned is Raw minus vertices claimed by earlier detections (plus
	// the seed itself, which is always unassigned when drawn). The Assigned
	// sets partition the vertex set.
	Assigned []int
	// Stats holds per-run diagnostics.
	Stats CommunityStats
}

// Result is the output of a full Detect run.
type Result struct {
	// Detections in pool order. Every vertex appears in exactly one
	// Assigned set.
	Detections []Detection
}

// Partition returns the Assigned sets: a partition of the vertex set.
func (r *Result) Partition() [][]int {
	out := make([][]int, len(r.Detections))
	for i := range r.Detections {
		out[i] = r.Detections[i].Assigned
	}
	return out
}

// Labels returns a per-vertex community label derived from the partition.
func (r *Result) Labels(n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for id, det := range r.Detections {
		for _, v := range det.Assigned {
			labels[v] = id
		}
	}
	return labels
}

func (c *config) validate(n int) error {
	if c.delta < 0 {
		return fmt.Errorf("core: negative delta %v", c.delta)
	}
	if c.minSize < 1 || c.maxLen < 1 || c.patience < 1 {
		return fmt.Errorf("core: options must be positive (minSize=%d maxLen=%d patience=%d)",
			c.minSize, c.maxLen, c.patience)
	}
	switch c.engine {
	case EngineReference, EngineCongest:
	case EngineParallel:
		if c.communities < 1 {
			return fmt.Errorf("core: community estimate r=%d must be positive", c.communities)
		}
		if c.communities > n {
			return fmt.Errorf("core: r=%d exceeds vertex count %d", c.communities, n)
		}
	default:
		return fmt.Errorf("core: unknown engine %v", c.engine)
	}
	if c.workers < 1 {
		return fmt.Errorf("core: congest workers %d must be positive", c.workers)
	}
	if c.congestBatch < 0 {
		return fmt.Errorf("core: negative congest batch size %d", c.congestBatch)
	}
	return nil
}

// stopRule returns the run's Algorithm 1 stop rule.
func (c *config) stopRule() rw.StopRule {
	return rw.StopRule{Delta: c.delta, Patience: c.patience, MaxLen: c.maxLen}
}

// DetectCommunity computes the community containing seed s: it walks from s,
// tracks the largest local mixing set at every length, and stops when the
// set's size stalls (Algorithm 1 lines 5–20). The walk runs on the hybrid
// sparse/dense engine of internal/rw, so the early steps — where the
// distribution is a small ball around s — cost only the support size.
//
// It is a thin wrapper over NewDetector + Detector.DetectCommunity with a
// background context; repeat callers on one graph should hold a Detector
// instead (engines and sweep buffers are then reused across calls).
func DetectCommunity(g *graph.Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	return DetectCommunityContext(context.Background(), g, s, opts...)
}

// DetectCommunityContext is DetectCommunity with cancellation: ctx is
// polled between walk steps and between ladder sizes of every sweep.
func DetectCommunityContext(ctx context.Context, g *graph.Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	d, err := NewDetector(g, opts...)
	if err != nil {
		return nil, CommunityStats{}, err
	}
	return d.DetectCommunity(ctx, s)
}

// sweep runs one mixing-set search over the engine's current distribution:
// the engine's hybrid sparse/dense sweep by default, or the dense path on
// every step when WithDenseSweep was given. Both return bit-identical
// results, and both run over the engine's retained sweeper buffers, so
// repeat serving is allocation-free whichever path a step takes.
func (c *config) sweep(eng *rw.WalkEngine) (rw.MixingSet, error) {
	if c.denseSweep {
		return eng.LargestMixingSetDense(c.minSize, c.mix)
	}
	return eng.LargestMixingSet(c.minSize, c.mix)
}

// stepAndSweep runs step l of Algorithm 1 for the walk on eng: advance the
// walk, sweep for the largest mixing set, and feed the set to trk, which
// decides whether the walk has ended. The solo loop and every walker of the
// parallel engine run this one function, so the step's timing, trace
// phases and observer report exist once. The sweep polls
// cfg.mix.Interrupt between ladder sizes.
func (c *config) stepAndSweep(eng *rw.WalkEngine, trk *rw.CommunityTracker, l int) error {
	timed := c.observer != nil || c.tr != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	eng.Step()
	var t1 time.Time
	if timed {
		t1 = time.Now()
	}
	cur, err := c.sweep(eng)
	if err != nil {
		return err
	}
	if timed {
		sweepNS := time.Since(t1).Nanoseconds()
		// AddPhase is atomic; the parallel engine's workers all land here.
		c.tr.AddPhase(trace.PhaseWalk, t1.Sub(t0))
		c.tr.AddPhase(trace.PhaseSweep, time.Duration(sweepNS))
		if c.observer != nil {
			c.observer(StepTiming{
				Seed:        trk.Stats().Seed,
				Step:        l,
				Support:     eng.SupportSize(),
				SparseSweep: eng.Sparse() && !c.denseSweep,
				StepNS:      t1.Sub(t0).Nanoseconds(),
				SweepNS:     sweepNS,
			})
		}
	}
	trk.Observe(l, cur)
	return nil
}

// detectCommunity is the solo detection loop shared by
// Detector.DetectCommunity and the pool loop, both of which reuse one
// WalkEngine and one tracker across all their seeds instead of reallocating
// per seed. ctx is polled once per walk step. The returned community slice
// is the tracker's buffer: valid until the tracker's next Reset.
func detectCommunity(ctx context.Context, eng *rw.WalkEngine, trk *rw.CommunityTracker, s int, cfg *config) ([]int, CommunityStats, error) {
	if err := eng.Reset(s); err != nil {
		return nil, CommunityStats{Seed: s}, err
	}
	trk.Reset(s, cfg.stopRule())
	for l := 1; !trk.Done(); l++ {
		if err := ctx.Err(); err != nil {
			return nil, trk.Stats(), err
		}
		if err := cfg.stepAndSweep(eng, trk, l); err != nil {
			return nil, trk.Stats(), err
		}
	}
	return trk.Community(), trk.Stats(), nil
}

// Detect runs CDRW over the whole graph: repeatedly draw a seed from the
// pool of unassigned vertices, detect its community, and remove the
// community from the pool (Algorithm 1 lines 1–23). Vertices claimed by an
// earlier community are not re-assigned, so the output is a partition.
//
// It is a thin wrapper over NewDetector + Detector.Detect with a background
// context, and honours the unified option surface — WithEngine selects the
// backend (reference by default), with results byte-identical to the
// pre-Detector entry points for fixed seeds.
func Detect(g *graph.Graph, opts ...Option) (*Result, error) {
	return DetectContext(context.Background(), g, opts...)
}

// DetectContext is Detect with cancellation: ctx is polled between pool
// iterations, between walk steps and between ladder sizes on every engine.
func DetectContext(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	d, err := NewDetector(g, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect(ctx)
}
