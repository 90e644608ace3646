package core

import (
	"fmt"
	"strings"
	"sync"

	"cdrw/internal/congest"
	"cdrw/internal/rw"
)

// Engine selects which realisation of Algorithm 1 a Detector runs. All
// three engines execute the same algorithm — the same walks, mixing-set
// ladder and stop rule — and produce identical communities for a fixed seed
// wherever their models overlap (the CONGEST engine restricts each walk to
// the seed's BFS-covered component, which coincides with the in-memory
// engines on connected graphs).
type Engine int

const (
	// EngineReference is the sequential in-memory engine: the paper's
	// Algorithm 1 pool loop, one seed at a time, walks evolved exactly on
	// the hybrid sparse/dense kernel.
	EngineReference Engine = iota
	// EngineParallel is the multi-seed extension from the paper's
	// conclusion: given an estimate r of the number of communities (set it
	// with WithCommunityEstimate), all r walks advance in lockstep with one
	// goroutine per live walk.
	EngineParallel
	// EngineCongest simulates the paper's §III distributed realisation:
	// per-round probability flooding over a CONGEST network with exact
	// round/message accounting.
	EngineCongest
)

// String returns the engine's canonical name ("reference", "parallel",
// "congest").
func (e Engine) String() string {
	switch e {
	case EngineReference:
		return "reference"
	case EngineParallel:
		return "parallel"
	case EngineCongest:
		return "congest"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine maps an engine name to its constant. It accepts the canonical
// names plus "core" as a legacy alias for "reference" (the historical
// cmd/cdrw flag value).
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "reference", "core":
		return EngineReference, nil
	case "parallel":
		return EngineParallel, nil
	case "congest":
		return EngineCongest, nil
	default:
		return 0, fmt.Errorf("core: unknown engine %q (want reference, parallel or congest)", name)
	}
}

// WithEngine selects the backend a Detector (or Detect itself) runs on. The
// default is EngineReference. EngineParallel additionally needs
// WithCommunityEstimate.
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e }
}

// WithCommunityEstimate sets r, the estimated number of communities the
// parallel engine detects concurrently (the conclusion's "assuming we know
// an (estimate) of r"). Required for EngineParallel; ignored by the other
// engines.
func WithCommunityEstimate(r int) Option {
	return func(c *config) { c.communities = r }
}

// WithCongestWorkers sets the CONGEST simulator's per-round node-local
// parallelism (congest.Config.Workers). Ignored by the in-memory engines.
func WithCongestWorkers(w int) Option {
	return func(c *config) { c.workers = w }
}

// WithTreeDepthLimit bounds the CONGEST engine's BFS tree depth
// (congest.Config.TreeDepthLimit); negative means unbounded. Ignored by the
// in-memory engines.
func WithTreeDepthLimit(d int) Option {
	return func(c *config) { c.treeDepth = d }
}

// WithCongestBatch sets how many seed walks the CONGEST engine's pool loop
// advances in shared communication rounds per super-step
// (congest.Config.Batch); values ≤ 1 keep the sequential one-seed-at-a-time
// loop. Batching never changes the emitted detections — every walk stays
// bit-identical to a sequential run of its seed — it reduces the simulated
// round count (shared rounds cost max, not sum, over the batch) at the price
// of speculative messages. Ignored by the in-memory engines.
func WithCongestBatch(b int) Option {
	return func(c *config) { c.congestBatch = b }
}

// WithDetectionObserver streams detections: fn receives each Detection the
// moment its community is frozen — as the pool loop emits it (reference and
// congest engines), or at overlap resolution (parallel engine, where
// communities are only final once every walk has stopped). The Detection's
// slices are owned by the result; fn must not mutate them. The reference
// and congest engines invoke fn from the calling goroutine; the parallel
// engine emits sequentially after its walkers join, so fn never needs to be
// goroutine-safe. Detector.Stream is built on this hook.
func WithDetectionObserver(fn func(Detection)) Option {
	return func(c *config) { c.detObs = fn }
}

// WithSharedIndex injects a prebuilt bundle of the immutable per-graph
// tables (degree-sorted sweep index, inverse-degree flood table) into the
// Detector instead of letting it build private copies: every pooled handle
// over one graph then shares a single ~28-bytes/vertex set of tables, which
// is what drops DetectorPool warm-up cost and resident bytes by roughly the
// pool size. ix must have been built over the same graph the Detector is
// given (NewDetector rejects a mismatch) and is read-only from the moment it
// is shared, so any number of detectors across goroutines may hold it.
// Injection never changes results — the tables are pure functions of the
// graph — so it deliberately does not appear in Settings or the run
// fingerprint. Passing nil restores the private default.
func WithSharedIndex(ix *rw.SharedIndex) Option {
	return func(c *config) { c.shared = ix }
}

// WithCongestTransport installs a pluggable flood-round transport on the
// CONGEST engine's network (congest.Network.SetFloodTransport): every
// probability-flooding round keeps its simulated accounting but delegates
// the numeric distribution evolution to t — which is how the cluster layer
// (internal/cluster) executes the same detection over real sockets, routing
// walk state to vertex owners each round. The transport contract requires
// bit-identical evolution (see congest.FloodTransport), so like
// WithSharedIndex this option never changes results and deliberately does
// not appear in Settings or the run fingerprint. Ignored by the in-memory
// engines; passing nil restores the in-memory kernels.
func WithCongestTransport(t congest.FloodTransport) Option {
	return func(c *config) { c.transport = t }
}

// SynchronizedObserver wraps a step observer in a mutex so it can be passed
// to WithStepObserver under DetectParallel (which invokes the observer from
// one goroutine per live walk) without hand-rolling locking in the callback.
// The reference engine calls observers from a single goroutine, where the
// uncontended lock costs a few nanoseconds per step.
func SynchronizedObserver(fn func(StepTiming)) func(StepTiming) {
	return synchronized(fn)
}

// SynchronizedDetectionObserver is SynchronizedObserver for detection
// observers. No current engine invokes detection observers concurrently, so
// this is only needed when one callback instance is shared across several
// Detectors running in different goroutines.
func SynchronizedDetectionObserver(fn func(Detection)) func(Detection) {
	return synchronized(fn)
}

// synchronized serialises calls to fn with a private mutex.
func synchronized[T any](fn func(T)) func(T) {
	var mu sync.Mutex
	return func(v T) {
		mu.Lock()
		defer mu.Unlock()
		fn(v)
	}
}

// Settings is the resolved snapshot of a run's options: every default
// filled in, every override applied. It is what a Detector actually runs
// with, exposed for experiment records and run fingerprinting.
type Settings struct {
	Engine           Engine
	Delta            float64
	MinCommunitySize int
	MaxWalkLength    int
	Patience         int
	Seed             uint64
	MixingThreshold  float64
	GrowthFactor     float64
	DenseSweep       bool
	// Communities is the parallel engine's r estimate (0 when unset).
	Communities int
	// CongestWorkers, TreeDepthLimit and CongestBatch are the CONGEST
	// engine's knobs.
	CongestWorkers int
	TreeDepthLimit int
	CongestBatch   int
}

// Resolve applies opts over the defaults for an n-vertex graph and returns
// the resolved settings, validating them exactly like NewDetector.
func Resolve(n int, opts ...Option) (Settings, error) {
	cfg := defaultConfig(n)
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(n); err != nil {
		return Settings{}, err
	}
	return cfg.snapshot(), nil
}

// snapshot exports the resolved option values.
func (c *config) snapshot() Settings {
	threshold := c.mix.Threshold
	if threshold <= 0 {
		threshold = rw.MixingThreshold
	}
	growth := c.mix.Growth
	if growth <= 1 {
		growth = rw.GrowthFactor
	}
	return Settings{
		Engine:           c.engine,
		Delta:            c.delta,
		MinCommunitySize: c.minSize,
		MaxWalkLength:    c.maxLen,
		Patience:         c.patience,
		Seed:             c.seed,
		MixingThreshold:  threshold,
		GrowthFactor:     growth,
		DenseSweep:       c.denseSweep,
		Communities:      c.communities,
		CongestWorkers:   c.workers,
		TreeDepthLimit:   c.treeDepth,
		CongestBatch:     c.congestBatch,
	}
}

// Fingerprint renders the settings as one stable, human-greppable record:
// experiment outputs embed it so sweep runs from different engines or
// option sets stay distinguishable after the fact.
func (s Settings) Fingerprint() string {
	return fmt.Sprintf(
		"engine=%s delta=%g R=%d L=%d patience=%d seed=%d threshold=%.6g growth=%.6g dense-sweep=%t r=%d workers=%d tree-depth=%d congest-batch=%d",
		s.Engine, s.Delta, s.MinCommunitySize, s.MaxWalkLength, s.Patience,
		s.Seed, s.MixingThreshold, s.GrowthFactor, s.DenseSweep,
		s.Communities, s.CongestWorkers, s.TreeDepthLimit, s.CongestBatch)
}

// CongestConfig translates the shared option set into the distributed
// engine's config. The translation is lossless: every field of
// congest.Config is driven by a shared option. Options without a CONGEST
// counterpart (WithDenseSweep, WithStepObserver — diagnostics of the
// in-memory sweep) do not appear here and are documented as in-memory-only.
func (s Settings) CongestConfig() congest.Config {
	return congest.Config{
		Delta:            s.Delta,
		MinCommunitySize: s.MinCommunitySize,
		MaxWalkLength:    s.MaxWalkLength,
		Patience:         s.Patience,
		Seed:             s.Seed,
		Workers:          s.CongestWorkers,
		TreeDepthLimit:   s.TreeDepthLimit,
		MixingThreshold:  s.MixingThreshold,
		GrowthFactor:     s.GrowthFactor,
		Batch:            s.CongestBatch,
	}
}
