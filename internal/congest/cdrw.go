package congest

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"cdrw/internal/rw"
)

// Config holds the per-walk parameters of a distributed CDRW run: Algorithm
// 1 lines 5–20 for one seed, as DetectCommunity and DetectBatch run it. The
// pool loop around the walks (lines 1–4 and 21–23: seed sampling, batching)
// and the network's worker count belong to the unified Detector
// (internal/core), whose Settings.CongestConfig builds this struct from the
// resolved options, defaults included (publicly, cdrw.DefaultCongestConfig).
// The zero value is not valid.
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

func (c Config) validate() error {
	if c.Delta < 0 {
		return fmt.Errorf("congest: negative delta %v", c.Delta)
	}
	if c.MinCommunitySize < 1 || c.MaxWalkLength < 1 || c.Patience < 1 {
		return fmt.Errorf("congest: config must be positive (minSize=%d maxLen=%d patience=%d)",
			c.MinCommunitySize, c.MaxWalkLength, c.Patience)
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
// distribution p over the covered nodes, in ladder order. Once per walk
// step it splits the covered nodes: those that hold mass are the
// selection's explicit keys (nw.support), and those that hold none form the
// off-support stream (nw.off), which excludes the support and every node
// the tree does not cover. Preparing it (rw.OffSupportStream.ResetMembers)
// sorts those nodes' degree-order positions, so a step's preparation costs
// what the tree covers, not n. Each size then runs selectIndexed, where
// off-support nodes answer the root's broadcasts from their degree alone,
// so a size costs O(support + log²n) simulator work per binary-search
// iteration instead of a scan over every covered node. The selections only
// read the network, so they run on min(GOMAXPROCS, len(ladder)) goroutines:
// the caller and one helper per further core, each claiming sizes from a
// shared cursor with its own scratch. A stopped run leaves the remaining
// results zero; the caller's next interrupted() poll reports it.
func (nw *Network) evalLadder(p rw.Dist, covered []int32, ladder []int) []sizeResult {
	if len(ladder) == 0 {
		return nil
	}
	if cap(nw.sizeRes) < len(ladder) {
		nw.sizeRes = make([]sizeResult, len(ladder))
	}
	// covered is ascending, so the support comes out ascending too.
	nw.support, nw.offMembers = nw.support[:0], nw.offMembers[:0]
	for _, v := range covered {
		if p[v] != 0 {
			nw.support = append(nw.support, v)
		} else {
			nw.offMembers = append(nw.offMembers, v)
		}
	}
	job := &ladderJob{
		nw: nw, idx: nw.degreeIndex(), p: p, ladder: ladder,
		res:  nw.sizeRes[:len(ladder)],
		done: make(chan struct{}),
	}
	nw.off.ResetMembers(job.idx, nw.offMembers)
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
	nw     *Network
	idx    *rw.DegreeIndex // degree tables and the off-support stream
	p      rw.Dist
	ladder []int
	res    []sizeResult
	next   atomic.Int64  // next unclaimed ladder position
	left   atomic.Int64  // sizes not yet finished
	done   chan struct{} // closed when left reaches zero
}

// work claims and evaluates sizes with scratch sc until none are left. The
// off-support stream is copied only once a size is claimed, while the
// caller is still waiting on this ladder.
func (j *ladderJob) work(sc *selScratch) {
	i := j.claim()
	if i < 0 {
		return
	}
	sc.off = j.nw.off
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
	if j.nw.stopped() {
		return sizeResult{}
	}
	return j.nw.selectIndexed(sc, j.idx, j.p, size, rw.MuPrime(j.nw.g, size))
}
