package congest

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"cdrw/internal/rw"
)

// Config parameterises a distributed CDRW run. The zero value is not valid;
// start from DefaultConfig. Every knob of the unified Detector option set
// (internal/core) translates losslessly into this struct; core.Settings.
// CongestConfig performs that translation.
type Config struct {
	// Delta is the stop-rule slack δ (paper: the graph conductance Φ_G).
	Delta float64
	// MinCommunitySize is R, the first candidate mixing-set size.
	MinCommunitySize int
	// MaxWalkLength caps the random-walk length.
	MaxWalkLength int
	// Patience is the number of consecutive stalled steps that trigger the
	// stop rule (1 = the paper's rule).
	Patience int
	// Seed drives pool sampling in Detect.
	Seed uint64
	// Workers sets the per-round parallelism of node-local computation.
	Workers int
	// TreeDepthLimit bounds the BFS tree depth; negative means unbounded
	// (cover the seed's whole component). The paper uses depth O(log n),
	// which covers the graph when it is connected with logarithmic
	// diameter (true for the PPM regime p = Ω(log n / n)).
	TreeDepthLimit int
	// MixingThreshold overrides the 1/2e mixing-condition bound; values
	// ≤ 0 select the paper's constant (ablations only, mirrors the core
	// engine's WithMixingThreshold).
	MixingThreshold float64
	// GrowthFactor overrides the 1+1/8e candidate-size ladder growth;
	// values ≤ 1 select the paper's constant.
	GrowthFactor float64
	// Batch is the number of seed walks Detect advances in shared
	// communication rounds per pool super-step (values ≤ 1 draw one seed
	// per super-step: the sequential pool loop). Batching never changes the
	// detected communities or any per-walk statistic — each walk's protocol,
	// including its own round/message cost, is bit-identical to a solo run —
	// it only lets independent walks share rounds (and speculate ahead of
	// the pool), so Result.Metrics.Rounds drops while total messages may
	// grow by the speculative walks that end up unused.
	Batch int
}

// mixResolved returns the effective mixing threshold and ladder growth,
// falling back to the paper's constants exactly like rw.MixOptions does.
func (c Config) mixResolved() (threshold, growth float64) {
	threshold = c.MixingThreshold
	if threshold <= 0 {
		threshold = rw.MixingThreshold
	}
	growth = c.GrowthFactor
	if growth <= 1 {
		growth = rw.GrowthFactor
	}
	return threshold, growth
}

// DefaultConfig mirrors internal/core's defaults so that the two engines
// produce identical communities on the same input.
func DefaultConfig(n int) Config {
	logN := int(math.Ceil(math.Log2(float64(n + 1))))
	if logN < 1 {
		logN = 1
	}
	return Config{
		Delta:            0.1,
		MinCommunitySize: logN,
		MaxWalkLength:    4*logN + 4,
		Patience:         1,
		Seed:             1,
		Workers:          1,
		TreeDepthLimit:   -1,
		Batch:            1,
	}
}

func (c Config) validate() error {
	if c.Delta < 0 {
		return fmt.Errorf("congest: negative delta %v", c.Delta)
	}
	if c.MinCommunitySize < 1 || c.MaxWalkLength < 1 || c.Patience < 1 {
		return fmt.Errorf("congest: config must be positive (minSize=%d maxLen=%d patience=%d)",
			c.MinCommunitySize, c.MaxWalkLength, c.Patience)
	}
	if c.Batch < 0 {
		return fmt.Errorf("congest: negative batch size %d", c.Batch)
	}
	return nil
}

// CommunityStats is the engine-independent rw.CommunityStats (which
// core.CommunityStats aliases) plus the CONGEST cost of the run. The
// embedded stats come from the same rw.CommunityTracker the in-memory
// engines use, so they equal the reference engine's field for field.
type CommunityStats struct {
	rw.CommunityStats
	TreeDepth int
	Metrics   Metrics // rounds/messages consumed by this community
}

// DetectCommunity runs the distributed Algorithm 1 for one seed: build the
// BFS tree, evolve the walk distribution by per-round flooding, search the
// largest local mixing set at every length via distributed binary search,
// and stop when the set size stalls. It returns the community (sorted) and
// cost statistics. It is DetectBatch of the single seed s.
func DetectCommunity(nw *Network, s int, cfg Config) ([]int, CommunityStats, error) {
	return DetectCommunityContext(context.Background(), nw, s, cfg)
}

// DetectCommunityContext is DetectCommunity with cancellation: the network's
// round scheduler polls ctx, so a cancelled or expired context unwinds the
// run within O(1) rounds (mid-ladder, mid-binary-search) and returns
// ctx.Err(). Rounds simulated before the cancellation remain accounted in
// the network's metrics.
func DetectCommunityContext(ctx context.Context, nw *Network, s int, cfg Config) ([]int, CommunityStats, error) {
	dets, err := DetectBatchContext(ctx, nw, []int{s}, cfg)
	if err != nil {
		return nil, CommunityStats{}, err
	}
	return dets[0].Community, dets[0].Stats, nil
}

// largestMixingSet runs the candidate-size sweep of Algorithm 1 lines 12–17
// over the tree-covered nodes and returns the largest set satisfying the
// mixing condition (Vertices nil when no size passes). Membership is
// materialised by one extra broadcast of the winning threshold key, after
// which every node knows locally whether it belongs to S_ℓ.
// The per-node x_u computation is rw.XValueAt — the exact function the
// reference engine sweeps with — and the per-size sum is the canonical
// rw.MixingSum, so the two engines share one definition of the statistic;
// this simulator only owns the tree selection and the round/message
// accounting around it.
//
// Once p is fixed the sizes are independent, so evalLadder computes every
// size's selection first, concurrently; the sweep then charges each size's
// communication in ladder order (replaySelection), so rounds, messages,
// lanes and the load observer see the same calls as a sequential sweep. A
// cancelled run context aborts the sweep with the context's error.
func (nw *Network) largestMixingSet(tree *Tree, covered []int32, p rw.Dist, ladder []int, mixThreshold float64) (rw.MixingSet, error) {
	g := nw.Graph()
	var (
		bestThreshold key
		bestSize      int
		found         bool
	)
	results := nw.evalLadder(p, covered, ladder)
	for i, size := range ladder {
		if err := nw.interrupted(); err != nil {
			return rw.MixingSet{}, err
		}
		r := results[i]
		nw.replaySelection(tree, r)
		if r.ok && r.sum < mixThreshold {
			bestThreshold = r.threshold
			bestSize = size
			found = true
		}
	}
	if err := nw.interrupted(); err != nil {
		return rw.MixingSet{}, err
	}
	// Every node evaluates the whole ladder, as in the reference sweep.
	ms := rw.MixingSet{SizesChecked: len(ladder)}
	if !found {
		return ms, nil
	}
	// Materialise membership: the root broadcasts the winning (size,
	// threshold); every covered node recomputes its x for that size and
	// compares. One broadcast round-trip.
	nw.broadcast(tree)
	muPrime := rw.MuPrime(g, bestSize)
	ms.Vertices = make([]int, 0, bestSize)
	for _, v := range covered {
		if keyLE(key{x: rw.XValueAt(g, p, int(v), bestSize, muPrime), id: v}, bestThreshold) {
			ms.Vertices = append(ms.Vertices, int(v))
		}
	}
	return ms, nil
}

// evalLadder computes every ladder size's selection for the walk
// distribution p over the covered nodes, in ladder order. When the tree
// covers an edged graph, each size runs on the degree-indexed fast path
// (selectIndexed): off-support nodes answer the root's broadcasts from their
// degree alone, so a size costs O(support + log²n) simulator work per
// binary-search iteration instead of a scan over every covered node
// (scanSelect). The selections only read the network, so they run on
// min(GOMAXPROCS, len(ladder)) goroutines: the caller and one helper per
// further core, each claiming sizes from a shared cursor with its own
// scratch. A stopped run leaves the remaining results zero; the caller's
// next interrupted() poll reports it.
func (nw *Network) evalLadder(p rw.Dist, covered []int32, ladder []int) []sizeResult {
	if len(ladder) == 0 {
		return nil
	}
	g := nw.g
	n := g.NumVertices()
	if cap(nw.sizeRes) < len(ladder) {
		nw.sizeRes = make([]sizeResult, len(ladder))
	}
	job := &ladderJob{
		nw: nw, idx: nw.degreeIndex(), p: p, covered: covered, ladder: ladder,
		// µ' > 0 for every size exactly when the graph has an edge.
		indexed: n > 0 && len(covered) == n && g.Volume() > 0,
		res:     nw.sizeRes[:len(ladder)],
		done:    make(chan struct{}),
	}
	if job.indexed {
		nw.support = nw.support[:0]
		for v := 0; v < n; v++ {
			if p[v] != 0 {
				nw.support = append(nw.support, int32(v))
			}
		}
		nw.off.Reset(job.idx, nw.support)
	}
	job.left.Store(int64(len(ladder)))
	workers := min(runtime.GOMAXPROCS(0), len(ladder))
	for len(nw.sel) < workers {
		nw.sel = append(nw.sel, new(selScratch))
	}
	for _, sc := range nw.sel[1:workers] {
		go job.work(sc)
	}
	job.work(nw.sel[0])
	<-job.done
	return job.res
}

// ladderJob is one evalLadder call shared by its workers. A worker touches
// nothing but the job's counters until it has claimed a size, and the
// caller waits for every claimed size to finish, not for the helpers: a
// helper the scheduler starts only after the caller has claimed every size
// finds the cursor exhausted and exits, so a short ladder never waits on a
// goroutine wake-up.
type ladderJob struct {
	nw      *Network
	idx     *rw.DegreeIndex // degree tables and, when indexed, the stream
	p       rw.Dist
	covered []int32
	ladder  []int
	indexed bool
	res     []sizeResult
	next    atomic.Int64  // next unclaimed ladder position
	left    atomic.Int64  // sizes not yet finished
	done    chan struct{} // closed when left reaches zero
}

// work claims and evaluates sizes with scratch sc until none are left. The
// off-support stream is copied only once a size is claimed, while the
// caller is still waiting on this ladder.
func (j *ladderJob) work(sc *selScratch) {
	i := j.claim()
	if i < 0 {
		return
	}
	if j.indexed {
		sc.off = j.nw.off
	}
	for ; i >= 0; i = j.claim() {
		j.res[i] = j.eval(sc, j.ladder[i])
		if j.left.Add(-1) == 0 {
			close(j.done)
		}
	}
}

// claim returns the next unclaimed ladder position, or -1 when none is left.
func (j *ladderJob) claim() int {
	if i := int(j.next.Add(1) - 1); i < len(j.ladder) {
		return i
	}
	return -1
}

// eval computes one size's selection; a stopped run yields the zero result.
func (j *ladderJob) eval(sc *selScratch, size int) sizeResult {
	nw := j.nw
	g := nw.g
	muPrime := rw.MuPrime(g, size)
	switch {
	case nw.stopped():
		return sizeResult{}
	case j.indexed:
		return nw.selectIndexed(sc, j.idx, j.p, size, muPrime)
	}
	if len(sc.x) < g.NumVertices() {
		sc.x = make([]float64, g.NumVertices())
	}
	t := sc.degreeTable(j.idx, size, muPrime, len(j.covered))
	for _, v := range j.covered {
		sc.x[v] = xValue(j.p, t, int(v), g.Degree(int(v)), muPrime)
	}
	r := nw.scanSelect(j.covered, sc.x, size)
	if r.ok {
		r.sum = canonicalCoveredSum(g, j.p, j.covered, sc.x, r.threshold, muPrime, size)
	}
	return r
}

// Detection mirrors core.Detection for the distributed engine.
type Detection struct {
	Raw      []int
	Assigned []int
	Stats    CommunityStats
}

// Result is the output of a full distributed Detect run.
type Result struct {
	Detections []Detection
	// Metrics aggregates rounds/messages over all detections.
	Metrics Metrics
}

// Detect runs the distributed CDRW pool loop (Algorithm 1 lines 1–23),
// detecting communities until every vertex is assigned. With cfg.Batch ≤ 1
// each super-step is one seed, sampled exactly like internal/core.Detect,
// so on a connected graph the two engines emit identical communities; with
// cfg.Batch > 1 each super-step advances a batch of seed walks in shared
// communication rounds (see DetectBatch and detectBatchedPool), every
// individual detection still bit-identical to a solo run of its seed.
func Detect(nw *Network, cfg Config) (*Result, error) {
	return DetectContext(context.Background(), nw, cfg)
}

// DetectContext is Detect with cancellation: ctx is polled by the round
// scheduler and between pool iterations, so a cancelled caller gets
// ctx.Err() back without waiting for the pool to drain.
func DetectContext(ctx context.Context, nw *Network, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw.setContext(ctx)
	defer nw.setContext(nil)
	return detectBatchedPool(nw, cfg)
}
