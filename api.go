// Package cdrw is the public API of this repository: a from-scratch Go
// implementation of CDRW (Community Detection by Random Walks) from Fathi,
// Molla & Pandurangan, "Efficient Distributed Community Detection in the
// Stochastic Block Model" (ICDCS 2019), together with every substrate the
// paper depends on — planted-partition graph generators, random-walk and
// local-mixing machinery, a CONGEST-model simulator, a k-machine-model
// converter, Label-Propagation and averaging-dynamics baselines, and the
// evaluation metrics of the paper's §IV.
//
// The centre of the API is the reusable, context-aware Detector: one option
// surface over the paper's three realisations of Algorithm 1 — the
// sequential reference engine, the multi-seed parallel extension and the
// CONGEST message-passing simulation — selected with WithEngine and
// swappable without touching the call site.
//
// Quickstart:
//
//	ppm, _ := cdrw.NewPPM(cdrw.PPMConfig{N: 2048, R: 2, P: 0.02, Q: 0.0006}, cdrw.NewRNG(1))
//	d, _ := cdrw.NewDetector(ppm.Graph,
//		cdrw.WithDelta(ppm.Config.ExpectedConductance()),
//		cdrw.WithEngine(cdrw.Reference), // or Parallel, or Congest
//	)
//	for det, err := range d.Stream(ctx) { // detections arrive as they freeze
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Println(len(det.Assigned))
//	}
//
// A Detector is built once per graph and reused: engines, the degree-sorted
// sweep index and all sweep scratch survive between calls, so repeated
// single-seed serving (Detector.DetectCommunity) is allocation-free in
// steady state. Detect/DetectCommunity honour context cancellation on every
// engine — between pool iterations, walk steps, ladder sizes and simulated
// CONGEST rounds.
//
// The pre-Detector entry points (Detect, DetectParallel, DetectCommunity, …)
// remain as thin wrappers over the same machinery and return byte-identical
// results for fixed seeds; see PAPER.md's "Unified API" section for the
// old-call → new-call migration table and the deprecation policy. A full
// CONGEST run goes through the Detector (WithEngine(Congest)), which owns
// Algorithm 1's one pool loop; the Congest* functions below run single
// walks and batches of walks on a caller-held network.
//
// The implementation subpackages live under internal/; this package
// re-exports the stable surface.
package cdrw

import (
	"context"
	"io"
	"iter"
	"net/http"
	"time"

	"cdrw/internal/baseline"
	"cdrw/internal/cluster"
	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/kmachine"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
	"cdrw/internal/serve"
	"cdrw/internal/trace"
	"cdrw/internal/viz"
)

// Graph substrate.
type (
	// Graph is an immutable simple undirected graph. Mutation is
	// copy-on-write: Graph.ApplyDelta merges an edge delta into a new
	// immutable snapshot, bit-identical to rebuilding from scratch.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Edge is one undirected edge of a delta batch (Graph.ApplyDelta,
	// GraphRegistry.ApplyDelta).
	Edge = graph.Edge
	// BFSResult is the outcome of a breadth-first search.
	BFSResult = graph.BFSResult
)

// NewGraphBuilder returns a builder for a graph with n vertices; duplicate
// edges and self-loops fail at Build.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewDedupGraphBuilder returns a builder that drops duplicates/self-loops.
func NewDedupGraphBuilder(n int) *GraphBuilder { return graph.NewDedupBuilder(n) }

// ReadEdgeList parses the "n m" + "u v" edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes the edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Deterministic randomness.
type RNG = rng.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Random graph models (§I-B of the paper).
type (
	// PPMConfig parameterises the symmetric planted partition model
	// G(n,p,q) with r equal blocks.
	PPMConfig = gen.PPMConfig
	// PPM is a sampled planted-partition graph with ground truth.
	PPM = gen.PPM
	// SBMConfig parameterises the general stochastic block model.
	SBMConfig = gen.SBMConfig
)

// Gnp samples an Erdős–Rényi graph.
func Gnp(n int, p float64, r *RNG) (*Graph, error) { return gen.Gnp(n, p, r) }

// NewPPM samples a planted-partition graph.
func NewPPM(cfg PPMConfig, r *RNG) (*PPM, error) { return gen.NewPPM(cfg, r) }

// NewSBM samples a general stochastic-block-model graph.
func NewSBM(cfg SBMConfig, r *RNG) (*PPM, error) { return gen.NewSBM(cfg, r) }

// RandomRegular samples a random d-regular simple graph (configuration
// model with edge-switch repair).
func RandomRegular(n, d int, r *RNG) (*Graph, error) { return gen.RandomRegular(n, d, r) }

// Random-walk machinery (§I-C).
type (
	// Dist is a probability distribution over vertices.
	Dist = rw.Dist
	// MixingSet is the outcome of a largest-mixing-set search.
	MixingSet = rw.MixingSet
	// MixOptions overrides the Algorithm 1 constants (threshold, ladder
	// growth) for ablation studies; the zero value selects the paper's.
	MixOptions = rw.MixOptions
	// WalkEngine evolves a walk distribution with a hybrid sparse/dense
	// kernel: a sparse frontier while the support is small, the flat dense
	// kernel past the density threshold. Its LargestMixingSet method runs
	// the Algorithm 1 candidate-size sweep the same way — O(support) per
	// ladder size off a degree-sorted index, with the support taken from
	// the frontier while the walk is sparse and extracted by one O(n) scan
	// after the switch, bit-identical either way. The in-memory detection
	// engines (Detect, DetectParallel) step and sweep on it; the CONGEST
	// engine keeps its per-round flooding but shares the rw mixing-set and
	// sweep-cut math.
	WalkEngine = rw.WalkEngine
	// SharedIndex is the immutable per-graph table bundle (degree-sorted
	// sweep index, inverse-degree flood table) that pooled detectors share:
	// build one per graph with NewSharedIndex, inject it with
	// WithSharedIndex, and any number of detectors across goroutines read
	// it concurrently. Tables build lazily on first use; Warm builds them
	// eagerly off the request path.
	SharedIndex = rw.SharedIndex
	// MixSweeper runs largest-mixing-set searches over one graph with the
	// sparse fast path exposed directly: pass the distribution's support
	// (ascending) for O(support)-per-size sweeps, or nil for the dense
	// reference. Not safe for concurrent use.
	MixSweeper = rw.Sweeper
)

// NewMixSweeper returns a sweeper over g with its own degree-sorted index.
func NewMixSweeper(g *Graph) *MixSweeper { return rw.NewSweeper(g) }

// NewSharedIndex returns an empty shared table bundle over g; tables build
// lazily (and exactly once) on first use, or eagerly via Warm.
func NewSharedIndex(g *Graph) *SharedIndex { return rw.NewSharedIndex(g) }

// Walk constants of Algorithm 1.
const (
	// MixingThreshold is the 1/2e bound of the mixing condition.
	MixingThreshold = rw.MixingThreshold
	// GrowthFactor is the 1+1/8e candidate-size growth step.
	GrowthFactor = rw.GrowthFactor
)

// Stationary returns the stationary distribution π(v) = d(v)/2m.
func Stationary(g *Graph) Dist { return rw.Stationary(g) }

// Walk evolves a point distribution from source for the given steps.
func Walk(g *Graph, source, steps int) (Dist, error) { return rw.Walk(g, source, steps) }

// NewWalkEngine returns a reusable hybrid sparse/dense walk engine over g.
// Call Reset(source), then Step/Advance; Dist exposes the current
// distribution.
func NewWalkEngine(g *Graph) *WalkEngine { return rw.NewWalkEngine(g) }

// MixingTime returns the ε-near mixing time from source.
func MixingTime(g *Graph, source int, eps float64, maxSteps int) (int, error) {
	return rw.MixingTime(g, source, eps, maxSteps)
}

// LargestMixingSet finds the largest set satisfying the mixing condition
// for the distribution p, sweeping candidate sizes from minSize.
func LargestMixingSet(g *Graph, p Dist, minSize int) (MixingSet, error) {
	return rw.LargestMixingSet(g, p, minSize)
}

// LocalMixingTime computes the local mixing time τ_s(β) of Definition 2:
// the first walk length at which a set of size ≥ n/β mixes.
func LocalMixingTime(g *Graph, source int, beta float64, minSize, maxSteps int) (int, MixingSet, error) {
	return rw.LocalMixingTime(g, source, beta, minSize, maxSteps)
}

// EstimateConductance estimates the sparsest-cut conductance around a
// source vertex via random-walk sweep cuts; CDRW accepts the estimate as
// its stop parameter δ when no ground-truth Φ_G is available.
func EstimateConductance(g *Graph, source, maxSteps int) (float64, error) {
	return rw.EstimateConductance(g, source, maxSteps)
}

// SweepCut returns the lowest-conductance prefix of vertices ordered by
// degree-normalised walk probability, with its conductance.
func SweepCut(g *Graph, p Dist) ([]int, float64, error) { return rw.SweepCut(g, p) }

// CDRW — the unified, context-aware Detector over the paper's three
// engines, plus the legacy entry points as thin wrappers.
type (
	// Detector is the reusable entry point to CDRW: build once per graph
	// (NewDetector), select the backend with WithEngine, then Detect /
	// DetectCommunity / Stream under a context. Engines, the degree index
	// and sweep buffers are retained between calls, so repeat single-seed
	// serving on one graph is allocation-free in steady state. Not safe for
	// concurrent use; build one per goroutine.
	Detector = core.Detector
	// DetectorEngine names one of the three Algorithm 1 realisations.
	DetectorEngine = core.Engine
	// Option customises a CDRW run — one surface shared by NewDetector and
	// every legacy entry point.
	Option = core.Option
	// DetectorSettings is the resolved option snapshot of a run: defaults
	// filled in, with a stable Fingerprint() for experiment records and
	// CongestConfig(), the per-walk CONGEST parameters it resolves to.
	DetectorSettings = core.Settings
	// Result is the output of Detect.
	Result = core.Result
	// Detection is one pool iteration's outcome.
	Detection = core.Detection
	// CommunityStats carries per-seed diagnostics.
	CommunityStats = core.CommunityStats
	// StepTiming is the per-step diagnostic record delivered to a
	// WithStepObserver callback: support size (-1 once the dense kernel,
	// and with it the dense sweep, has taken over) and step/sweep wall
	// times.
	StepTiming = core.StepTiming
)

// The three engines of WithEngine.
const (
	// Reference is the sequential in-memory pool loop (the default).
	Reference = core.EngineReference
	// Parallel is the conclusion's multi-seed extension: the r seeds'
	// walks run concurrently, each the solo detection of its seed; set the
	// community estimate with WithCommunityEstimate.
	Parallel = core.EngineParallel
	// Congest is the §III distributed simulation with round/message
	// accounting.
	Congest = core.EngineCongest
)

// NewDetector resolves opts over the defaults for g and returns a reusable
// context-aware detector (engine defaults to Reference).
func NewDetector(g *Graph, opts ...Option) (*Detector, error) {
	return core.NewDetector(g, opts...)
}

// ParseEngine maps "reference" (alias "core"), "parallel" or "congest" to
// its engine constant — the -engine flag of cmd/cdrw and cmd/experiments.
func ParseEngine(name string) (DetectorEngine, error) { return core.ParseEngine(name) }

// ResolveOptions returns the resolved settings opts produce on an n-vertex
// graph, validating them exactly like NewDetector.
func ResolveOptions(n int, opts ...Option) (DetectorSettings, error) {
	return core.Resolve(n, opts...)
}

// Detect runs the full CDRW pool loop on g: a thin wrapper over NewDetector
// + Detector.Detect with a background context, byte-identical to the
// pre-Detector behaviour for fixed seeds.
func Detect(g *Graph, opts ...Option) (*Result, error) { return core.Detect(g, opts...) }

// DetectContext is Detect with cancellation: ctx is polled between pool
// iterations, walk steps and ladder sizes on every engine.
func DetectContext(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	return core.DetectContext(ctx, g, opts...)
}

// DetectCommunity computes the community containing seed s. Repeat callers
// on one graph should hold a Detector instead, which reuses its engines and
// buffers across calls.
func DetectCommunity(g *Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	return core.DetectCommunity(g, s, opts...)
}

// DetectCommunityContext is DetectCommunity with cancellation.
func DetectCommunityContext(ctx context.Context, g *Graph, s int, opts ...Option) ([]int, CommunityStats, error) {
	return core.DetectCommunityContext(ctx, g, s, opts...)
}

// DetectParallel detects r communities concurrently (the conclusion's
// "find communities in parallel, assuming an estimate of r" extension) — a
// thin wrapper over NewDetector with the Parallel engine.
func DetectParallel(g *Graph, r int, opts ...Option) (*Result, error) {
	return core.DetectParallel(g, r, opts...)
}

// DetectParallelContext is DetectParallel with cancellation; the first
// worker error (or the caller's cancellation) cancels the other workers.
func DetectParallelContext(ctx context.Context, g *Graph, r int, opts ...Option) (*Result, error) {
	return core.DetectParallelContext(ctx, g, r, opts...)
}

// DetectionSeq is the iterator shape of Detector.Stream: detections arrive
// with a nil error as their communities freeze; a run failure arrives as
// one final (zero Detection, non-nil error) pair.
type DetectionSeq = iter.Seq2[Detection, error]

// Re-exported CDRW options — one surface for every engine and entry point.
var (
	// WithDelta sets the stop-rule slack δ (paper: the conductance Φ_G).
	WithDelta = core.WithDelta
	// WithMinCommunitySize sets the initial candidate size R.
	WithMinCommunitySize = core.WithMinCommunitySize
	// WithMaxWalkLength caps the walk length.
	WithMaxWalkLength = core.WithMaxWalkLength
	// WithPatience sets the stalled-step tolerance of the stop rule.
	WithPatience = core.WithPatience
	// WithSeed fixes the pool-sampling seed.
	WithSeed = core.WithSeed
	// WithEngine selects the Detector backend (Reference, Parallel,
	// Congest); the default is Reference.
	WithEngine = core.WithEngine
	// WithCommunityEstimate sets the Parallel engine's r estimate.
	WithCommunityEstimate = core.WithCommunityEstimate
	// WithTreeDepthLimit bounds the CONGEST BFS tree depth (negative =
	// unbounded; in-memory engines ignore it).
	WithTreeDepthLimit = core.WithTreeDepthLimit
	// WithCongestBatch batches the Congest engine's pool loop: that many
	// seed walks advance in shared communication rounds per super-step
	// (≤ 1 = sequential). Each detection is bit-identical to a solo run
	// of its seed; the simulated round count drops to the shared-round
	// cost. In-memory engines ignore it.
	WithCongestBatch = core.WithCongestBatch
	// WithMixingThreshold overrides the 1/2e bound (ablations only).
	WithMixingThreshold = core.WithMixingThreshold
	// WithGrowthFactor overrides the 1+1/8e ladder growth (ablations only).
	WithGrowthFactor = core.WithGrowthFactor
	// WithStepObserver streams per-step support and timing diagnostics
	// to a callback. Goroutine-safety contract: the Reference engine calls
	// it from one goroutine, the Parallel engine from up to
	// min(r, GOMAXPROCS) worker goroutines at once — wrap with
	// SynchronizedObserver (or make fn lock itself) before passing it to a
	// Parallel run. In-memory engines only.
	WithStepObserver = core.WithStepObserver
	// WithDetectionObserver streams each Detection the moment its
	// community freezes (pool emission on Reference/Congest, overlap
	// resolution on Parallel). Always invoked sequentially; never needs
	// internal locking.
	WithDetectionObserver = core.WithDetectionObserver
	// WithSharedIndex injects a prebuilt SharedIndex so pooled detectors
	// over one graph share a single set of immutable tables instead of
	// building private copies. Results never change (the tables are pure
	// functions of the graph), so injection does not appear in the settings
	// fingerprint; NewDetector rejects a bundle built over another graph.
	WithSharedIndex = core.WithSharedIndex
	// SynchronizedObserver wraps a step observer in a mutex so it is safe
	// under the Parallel engine without hand-rolled locking.
	SynchronizedObserver = core.SynchronizedObserver
	// SynchronizedDetectionObserver is the same wrapper for detection
	// observers shared across Detectors running in different goroutines.
	SynchronizedDetectionObserver = core.SynchronizedDetectionObserver
)

// Concurrent serving. A single Detector is deliberately single-goroutine;
// the serving subsystem turns it into a concurrent front end: DetectorPool
// lends warmed handles to one request at a time (bounded admission,
// ctx-aware checkout), GraphRegistry maps named graphs to pools with result
// caching keyed by DetectorSettings.Fingerprint and singleflight collapsing
// of identical in-flight runs, and NewServeHandler is the HTTP/JSON surface
// the cdrwd daemon mounts.
type (
	// DetectorPool is a concurrency-safe pool of warmed Detectors over one
	// graph: handles retain their engines and sweep buffers across requests,
	// so the Detector's allocation-free repeat-serving contract holds per
	// handle under concurrent load. Pooled answers are byte-identical to a
	// fresh solo Detector's for fixed seeds.
	DetectorPool = serve.DetectorPool
	// GraphRegistry maps named graphs to detector pools, fronted by a
	// per-(graph, option-fingerprint) result cache with invalidation on
	// graph replacement and singleflight collapsing. Registered graphs can
	// be mutated in place by GraphRegistry.ApplyDelta: the next generation
	// is double-buffered off the serving copy and swapped in atomically,
	// with incremental cache invalidation (disjoint single-seed lines
	// survive; intersecting ones re-verify by replaying only their frozen
	// sweep).
	GraphRegistry = serve.Registry
	// DeltaStats summarises one GraphRegistry.ApplyDelta swap: the new
	// generation, edges applied, cache lines kept / re-verified / evicted,
	// and the swap latency.
	DeltaStats = serve.DeltaStats
	// ServeMetrics aggregates the serving counters (requests, errors, cache
	// hits/misses, collapsed requests, pool waits, latency quantiles).
	ServeMetrics = metrics.ServeMetrics
	// ServeSnapshot is a point-in-time read of a ServeMetrics.
	ServeSnapshot = metrics.ServeSnapshot
)

// NewDetectorPool builds a pool of size warmed detectors over g, all with
// the same options (resolved and validated exactly like NewDetector). The
// handles share one warmed SharedIndex built here, so pool warm-up pays the
// O(n) table builds once rather than per handle.
func NewDetectorPool(g *Graph, size int, opts ...Option) (*DetectorPool, error) {
	return serve.NewDetectorPool(g, size, opts...)
}

// NewDetectorPoolWithIndex is NewDetectorPool with a caller-owned shared
// table bundle, letting several pools over one graph share a single
// SharedIndex (what GraphRegistry does per graph generation). ix nil builds
// a fresh bundle for this pool.
func NewDetectorPoolWithIndex(g *Graph, size int, ix *SharedIndex, opts ...Option) (*DetectorPool, error) {
	return serve.NewDetectorPoolWithIndex(g, size, ix, opts...)
}

// NewGraphRegistry returns an empty registry whose pools hold poolSize
// handles each (poolSize < 1 selects GOMAXPROCS); m receives the serving
// counters and may be nil.
func NewGraphRegistry(poolSize int, m *ServeMetrics) *GraphRegistry {
	return serve.NewRegistry(poolSize, m)
}

// NewServeMetrics returns a fresh serving counter set.
func NewServeMetrics() *ServeMetrics { return metrics.NewServeMetrics() }

// NewServeHandler mounts reg behind the cdrwd HTTP/JSON surface (graph
// upload/generate, detect, community, NDJSON streams, /metrics, /healthz)
// for embedding the daemon in a larger server.
func NewServeHandler(reg *GraphRegistry, m *ServeMetrics) http.Handler {
	return serve.NewHandler(reg, m)
}

// Cluster mode: the k-machine model over real sockets. k shards place
// vertices by the deterministic HashPartition, discover each other by
// gossip, and answer CONGEST detections from any shard bit-identically to
// a single process — while counting the per-link wire traffic the
// Conversion Theorem bounds.
type (
	// ClusterConfig is one shard's static cluster membership: total size,
	// the URL peers reach this shard at, and any known peers to join.
	ClusterConfig = cluster.Config
	// ClusterNode is one shard of a cdrwd cluster: gossip membership, the
	// shard-local round protocol, and the cluster-aware detection driver.
	ClusterNode = cluster.Node
	// ClusterStatus reports a shard's membership view (served on /readyz).
	ClusterStatus = serve.ClusterStatus
	// ClusterPeerError is the typed failure a cluster detection returns
	// when a peer shard dies or goes silent mid-run: it names the peer and
	// wraps both the underlying cause and ErrCluster (the 502-mapped
	// class), so errors.As/Is both work on it.
	ClusterPeerError = cluster.PeerError
)

// Cluster error classes, for errors.Is on detection failures: ErrCluster is
// any cluster-protocol failure (HTTP 502 at the daemon surface),
// ErrClusterNotReady the refusal while membership is unsettled (503).
var (
	ErrCluster         = serve.ErrCluster
	ErrClusterNotReady = serve.ErrClusterNotReady
)

// NewClusterNode attaches a cluster shard to reg. Call Start to begin
// gossiping and Stop on shutdown; mount the node with
// NewClusterServeHandler so peers can reach its /cluster/ protocol.
func NewClusterNode(reg *GraphRegistry, cfg ClusterConfig) (*ClusterNode, error) {
	return cluster.New(reg, cfg)
}

// NewClusterServeHandler is NewServeHandler plus the cluster surface:
// /readyz reports membership, /cluster/ serves the shard-to-shard round
// protocol, CONGEST detections route through the cluster, and /metrics
// appends the per-link wire counters.
func NewClusterServeHandler(reg *GraphRegistry, m *ServeMetrics, node *ClusterNode) http.Handler {
	return serve.NewClusterHandler(reg, m, node)
}

// Request tracing: the flight recorder behind the daemon's
// GET /debug/traces. A Trace rides the request context — the serving layer
// mints one per /graphs/ request, the engines attribute per-phase time to
// it, and cluster RPCs carry its ID in an X-Request-Id header so driver and
// shard work stitch into one trace. A nil *Trace is a free no-op on every
// method, and an untraced context costs nothing to check, so embedding
// callers only pay for tracing when they attach one.
type (
	// Trace accumulates one request's per-phase durations and spans.
	Trace = trace.Trace
	// TracePhase identifies one pipeline phase (walk, sweep, flood,
	// peer_pull, cache).
	TracePhase = trace.Phase
	// TraceSnapshot is a trace's JSON rendering, as /debug/traces serves it.
	TraceSnapshot = trace.Snapshot
	// TraceRecorder is the bounded ring of recent traces.
	TraceRecorder = trace.Recorder
)

// NewTraceID mints a fresh 16-hex-digit request ID.
func NewTraceID() string { return trace.NewID() }

// NewTrace starts a trace with the given request ID and name.
func NewTrace(id, name string) *Trace { return trace.New(id, name) }

// NewTraceAt is NewTrace with an externally observed start time, reusing a
// clock read the caller already paid for (request wrappers time every
// request anyway).
func NewTraceAt(id, name string, start time.Time) *Trace { return trace.NewAt(id, name, start) }

// ContextWithTrace attaches t to ctx; detections run under the returned
// context attribute their phase time to t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return trace.NewContext(ctx, t)
}

// TraceFromContext returns the context's trace, or nil. The lookup is
// allocation-free.
func TraceFromContext(ctx context.Context) *Trace { return trace.FromContext(ctx) }

// NewTraceRecorder returns a ring keeping the last size traces (size <= 0
// selects the default capacity).
func NewTraceRecorder(size int) *TraceRecorder { return trace.NewRecorder(size) }

// Distributed engines.
type (
	// CongestNetwork simulates the CONGEST model on an input graph.
	CongestNetwork = congest.Network
	// CongestConfig parameterises a distributed CDRW run.
	CongestConfig = congest.Config
	// CongestMetrics counts rounds and messages.
	CongestMetrics = congest.Metrics
	// CongestBatchDetection is one walk's outcome of CongestDetectBatch:
	// its community plus stats bit-identical to a sequential run's.
	CongestBatchDetection = congest.BatchDetection
	// CongestLinkLoad is one directed link's aggregate word count in one
	// communication round, as delivered to a CongestLoadObserver.
	CongestLinkLoad = congest.LinkLoad
	// CongestLoadObserver receives per-round aggregate link loads — one
	// entry per link and its word count, which is what the k-machine
	// converter consumes.
	CongestLoadObserver = congest.LoadObserver
	// KMachineAssignment maps vertices to home machines.
	KMachineAssignment = kmachine.Assignment
	// KMachineSimulator converts CONGEST traffic into k-machine rounds.
	KMachineSimulator = kmachine.Simulator
	// KMachineResults reports the conversion outcome.
	KMachineResults = kmachine.Results
)

// NewCongestNetwork wraps g in a CONGEST simulator.
func NewCongestNetwork(g *Graph) *CongestNetwork {
	return congest.NewNetwork(g)
}

// DefaultCongestConfig returns the per-walk CONGEST parameters the
// Detector's defaults resolve to on an n-vertex graph:
// ResolveOptions(n)'s CongestConfig.
func DefaultCongestConfig(n int) CongestConfig {
	s, _ := ResolveOptions(n) // the defaults always validate
	return s.CongestConfig()
}

// CongestDetectCommunity runs distributed CDRW for one seed.
func CongestDetectCommunity(nw *CongestNetwork, s int, cfg CongestConfig) ([]int, congest.CommunityStats, error) {
	return congest.DetectCommunity(nw, s, cfg)
}

// CongestDetectBatch runs distributed CDRW for several seeds concurrently in
// shared communication rounds: every walk's community and per-walk cost are
// bit-identical to CongestDetectCommunity of its seed, while the network's
// round count grows by the batch's maximum instead of its sum.
// WithCongestBatch batches a Detector's pool loop the same way.
func CongestDetectBatch(nw *CongestNetwork, seeds []int, cfg CongestConfig) ([]CongestBatchDetection, error) {
	return congest.DetectBatch(nw, seeds, cfg)
}

// CongestDetectBatchContext is CongestDetectBatch with cancellation, polled
// between shared rounds.
func CongestDetectBatchContext(ctx context.Context, nw *CongestNetwork, seeds []int, cfg CongestConfig) ([]CongestBatchDetection, error) {
	return congest.DetectBatchContext(ctx, nw, seeds, cfg)
}

// CongestDetectCommunityContext is CongestDetectCommunity with
// cancellation: a cancelled context unwinds the simulation within O(1)
// rounds, mid-ladder or mid-binary-search.
func CongestDetectCommunityContext(ctx context.Context, nw *CongestNetwork, s int, cfg CongestConfig) ([]int, congest.CommunityStats, error) {
	return congest.DetectCommunityContext(ctx, nw, s, cfg)
}

// CongestEstimateConductance estimates the conductance around source inside
// the CONGEST model (flooding walk + sweep cuts, with round/message
// accounting); the estimate can seed CongestConfig.Delta when no
// ground-truth Φ_G is available. depthLimit bounds the BFS tree as in
// CongestConfig.TreeDepthLimit (negative = unbounded).
func CongestEstimateConductance(nw *CongestNetwork, source, maxSteps, depthLimit int) (float64, error) {
	return congest.EstimateConductance(nw, source, maxSteps, depthLimit)
}

// CongestEstimateConductanceContext is CongestEstimateConductance with
// cancellation, polled once per flooding step.
func CongestEstimateConductanceContext(ctx context.Context, nw *CongestNetwork, source, maxSteps, depthLimit int) (float64, error) {
	return congest.EstimateConductanceContext(ctx, nw, source, maxSteps, depthLimit)
}

// RandomVertexPartition assigns vertices uniformly to k machines (RVP).
func RandomVertexPartition(n, k int, r *RNG) (KMachineAssignment, error) {
	return kmachine.RandomVertexPartition(n, k, r)
}

// HashPartition assigns vertices to k machines by a deterministic seeded
// hash: the RVP's balance properties without shared RNG state, so
// independent processes agree on every vertex's home from (n, k, seed)
// alone. It is the placement cluster mode (cdrwd -cluster-size) uses.
func HashPartition(n, k int, seed uint64) (KMachineAssignment, error) {
	return kmachine.HashPartition(n, k, seed)
}

// NewKMachineSimulator creates a Conversion-Theorem converter with the
// given link bandwidth in words per round.
func NewKMachineSimulator(assign KMachineAssignment, bandwidth int) (*KMachineSimulator, error) {
	return kmachine.NewSimulator(assign, bandwidth)
}

// Baselines (§II comparators).
type (
	// LPAConfig parameterises Label Propagation.
	LPAConfig = baseline.LPAConfig
	// LPAResult is the Label Propagation output.
	LPAResult = baseline.LPAResult
	// AveragingConfig parameterises the averaging dynamics.
	AveragingConfig = baseline.AveragingConfig
	// AveragingResult is the averaging-dynamics output.
	AveragingResult = baseline.AveragingResult
)

// LPA runs synchronous Label Propagation.
func LPA(g *Graph, cfg LPAConfig) (*LPAResult, error) { return baseline.LPA(g, cfg) }

// Averaging runs the two-community averaging dynamics.
func Averaging(g *Graph, cfg AveragingConfig) (*AveragingResult, error) {
	return baseline.Averaging(g, cfg)
}

// Metrics (§IV).
type (
	// DetectionResult pairs a detected community with its seed's truth.
	DetectionResult = metrics.DetectionResult
	// Report is a per-detection evaluation table.
	Report = metrics.Report
)

// NewReport scores detections against ground truth, row by row.
func NewReport(results []DetectionResult) (*Report, error) { return metrics.NewReport(results) }

// FScore returns the harmonic mean of precision and recall.
func FScore(detected, truth []int) float64 { return metrics.FScore(detected, truth) }

// Precision returns |detected ∩ truth| / |detected|.
func Precision(detected, truth []int) float64 { return metrics.Precision(detected, truth) }

// Recall returns |detected ∩ truth| / |truth|.
func Recall(detected, truth []int) float64 { return metrics.Recall(detected, truth) }

// TotalFScore averages F-scores over all detections (the paper's headline
// accuracy metric).
func TotalFScore(results []DetectionResult) (float64, error) { return metrics.TotalFScore(results) }

// BestMatchFScore scores a seed-free partition against ground truth.
func BestMatchFScore(detected, truth [][]int) (float64, error) {
	return metrics.BestMatchFScore(detected, truth)
}

// NMI returns the normalised mutual information of two labelings.
func NMI(a, b []int) (float64, error) { return metrics.NMI(a, b) }

// ARI returns the adjusted Rand index of two labelings.
func ARI(a, b []int) (float64, error) { return metrics.ARI(a, b) }

// Visualisation.
type VizOptions = viz.Options

// WriteDOT renders g as Graphviz DOT, optionally coloured by community.
func WriteDOT(w io.Writer, g *Graph, opts VizOptions) error { return viz.WriteDOT(w, g, opts) }
