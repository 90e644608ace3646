package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// parTask is one unit of walker work: advance walk i at walk length l. A
// negative i is the stop sentinel that retires a worker at the end of a run.
type parTask struct{ i, l int }

// DetectParallel implements the extension sketched in the paper's
// conclusion: "our algorithm can also be extended to find communities even
// faster (by finding communities in parallel), assuming we know an
// (estimate) of r". It draws r seeds and advances all r walks in lockstep,
// one walk engine each over a shared degree index, with a pool of
// persistent walker goroutines fed walk indices over a retained channel:
// each task advances one walk (hybrid sparse/dense kernel) and runs its
// mixing-set search, so stepping and sweeping overlap across cores without
// spawning a goroutine per walk per step. It then resolves overlaps
// deterministically: a vertex claimed by several detections goes to the one
// whose seed drew the lower pool position. Vertices claimed by no detection
// are attached to the claiming community most frequent among their
// neighbours (one label-propagation step), or form singletons if they have
// no claimed neighbour.
//
// Seeds are spread apart: after the first uniform draw, each subsequent
// seed is drawn from the vertices not yet covered by earlier seeds' balls
// of radius 2, which makes landing all r seeds in one block unlikely
// without requiring any global knowledge beyond r.
//
// It is a thin wrapper over NewDetector with EngineParallel and a
// background context.
func DetectParallel(g *graph.Graph, r int, opts ...Option) (*Result, error) {
	return DetectParallelContext(context.Background(), g, r, opts...)
}

// DetectParallelContext is DetectParallel with cancellation: ctx is polled
// by every walker goroutine between steps and between ladder sizes, and the
// first walker error (or the caller's cancellation) cancels the sibling
// walkers before the run unwinds.
func DetectParallelContext(ctx context.Context, g *graph.Graph, r int, opts ...Option) (*Result, error) {
	opts = append(opts[:len(opts):len(opts)],
		WithEngine(EngineParallel), WithCommunityEstimate(r))
	d, err := NewDetector(g, opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect(ctx)
}

// detectParallel is the EngineParallel backend of Detector.Detect.
func (d *Detector) detectParallel(ctx context.Context) (*Result, error) {
	g := d.g
	n := g.NumVertices()
	r := d.cfg.communities
	rnd := rng.New(d.cfg.seed)

	// A cancelled sibling tears the whole run down: the first walker error
	// cancels sctx, which every other walker polls between walk steps and
	// between ladder sizes of its sweep.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := d.cfg
	cfg.mix.Interrupt = sctx.Err

	// Draw spread-out seeds, reusing the detector's scratch.
	if cap(d.parBlocked) < n {
		d.parBlocked = make([]bool, n)
		d.parFree = make([]int, 0, n)
	}
	seeds := d.parSeeds[:0]
	blocked := d.parBlocked[:n]
	for v := range blocked {
		blocked[v] = false
	}
	for len(seeds) < r {
		free := d.parFree[:0]
		for v := 0; v < n; v++ {
			if !blocked[v] {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			// Everything blocked: fall back to uniform draws.
			seeds = append(seeds, rnd.Intn(n))
			continue
		}
		s := free[rnd.Intn(len(free))]
		seeds = append(seeds, s)
		for _, v := range g.Ball(s, 2) {
			blocked[v] = true
		}
	}
	d.parSeeds = seeds

	// Detect all seeds' communities in lockstep: per walk length, every
	// live walk runs one stepAndSweep — the same step DetectCommunity runs
	// — so the outcome per seed is identical to running the seeds one by
	// one. The walk engines and trackers are retained by the detector:
	// repeat runs Reset them instead of rebuilding.
	for len(d.parWalks) < r {
		d.parWalks = append(d.parWalks, rw.NewWalkEngineWithIndex(g, d.degreeIndex()))
		d.parTrackers = append(d.parTrackers, &rw.CommunityTracker{})
	}
	walks, trackers := d.parWalks[:r], d.parTrackers[:r]
	for i, s := range seeds {
		if err := walks[i].Reset(s); err != nil {
			return nil, err
		}
		trackers[i].Reset(s, cfg.stopRule())
	}
	if cap(d.parErrs) < r {
		d.parErrs = make([]error, r)
	}
	errs := d.parErrs[:r]
	for i := range errs {
		errs[i] = nil
	}
	// Persistent walkers: one task runs step l of walk i (stepAndSweep).
	// Instead of spawning a goroutine per live walk per step — whose
	// creation cost dominates short steps under DetectorPool load — the run
	// spawns min(r, GOMAXPROCS) workers once and feeds them walk indices
	// over a channel the detector retains across runs.
	var wg sync.WaitGroup
	step := func(i, l int) {
		defer wg.Done()
		if err := sctx.Err(); err != nil {
			errs[i] = err
			return
		}
		if err := cfg.stepAndSweep(walks[i], trackers[i], l); err != nil {
			errs[i] = err
			cancel() // first error cancels the sibling walkers
		}
	}
	if cap(d.parWork) < r {
		d.parWork = make(chan parTask, r)
	}
	work := d.parWork
	workers := r
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for t := range work {
				if t.i < 0 {
					return
				}
				step(t.i, t.l)
			}
		}()
	}
	// Stop the workers on every exit path and join them before returning:
	// the channel is retained across runs, so a worker left alive here
	// could steal the next run's tasks (or its stop sentinels) and run this
	// run's stale closure. The channel's capacity is at least r ≥ workers
	// and the dispatch loop always joins (wg.Wait) before returning, so the
	// sentinel sends cannot block, and every worker consumes exactly one
	// sentinel — the channel is empty once workerWG settles.
	defer func() {
		for w := 0; w < workers; w++ {
			work <- parTask{i: -1}
		}
		workerWG.Wait()
	}()
	// Each round dispatches step l of every walk whose tracker has not
	// ended it; the run ends when no walk is live (every tracker ends its
	// walk by the length cap at the latest).
	for l := 1; ; l++ {
		live := 0
		for i := range trackers {
			if !trackers[i].Done() {
				live++
				wg.Add(1)
				work <- parTask{i: i, l: l}
			}
		}
		if live == 0 {
			break
		}
		wg.Wait()
		// The first genuine walker error wins: once one walker fails and
		// cancels sctx, its siblings abort with the induced context error,
		// which must not mask the root cause. Pure context errors (the
		// caller cancelled) surface as such.
		var ctxErr error
		ctxSeed := 0
		for i := range trackers {
			if errs[i] == nil {
				continue
			}
			if !errors.Is(errs[i], context.Canceled) && !errors.Is(errs[i], context.DeadlineExceeded) {
				return nil, fmt.Errorf("core: parallel community of seed %d: %w", seeds[i], errs[i])
			}
			if ctxErr == nil {
				ctxErr, ctxSeed = errs[i], seeds[i]
			}
		}
		if ctxErr != nil {
			return nil, fmt.Errorf("core: parallel community of seed %d: %w", ctxSeed, ctxErr)
		}
	}

	// Resolve overlaps: earlier seed index wins. Raw is copied out of the
	// tracker (its buffer rewinds on the detector's next run); Result slices
	// stay safe to retain, per the Detector contract.
	if cap(d.parOwner) < n {
		d.parOwner = make([]int, n)
	}
	owner := d.parOwner[:n]
	for v := range owner {
		owner[v] = -1
	}
	res := &Result{Detections: make([]Detection, r)}
	for i, t := range trackers {
		raw := append([]int(nil), t.Community()...)
		kept := make([]int, 0, len(raw))
		for _, v := range raw {
			if owner[v] < 0 {
				owner[v] = i
				kept = append(kept, v)
			}
		}
		res.Detections[i] = Detection{Raw: raw, Assigned: kept, Stats: t.Stats()}
	}

	// Attach unclaimed vertices by neighbour majority (repeat until stable
	// so chains of unclaimed vertices resolve); leftovers become singleton
	// communities.
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if owner[v] >= 0 {
				continue
			}
			counts := make(map[int]int)
			bestOwner, bestCount := -1, 0
			for _, w := range g.Neighbors(v) {
				if o := owner[w]; o >= 0 {
					counts[o]++
					if counts[o] > bestCount || (counts[o] == bestCount && o < bestOwner) {
						bestOwner, bestCount = o, counts[o]
					}
				}
			}
			if bestOwner >= 0 {
				owner[v] = bestOwner
				res.Detections[bestOwner].Assigned = append(res.Detections[bestOwner].Assigned, v)
				changed = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if owner[v] >= 0 {
			continue
		}
		owner[v] = len(res.Detections)
		res.Detections = append(res.Detections, Detection{
			Raw:      []int{v},
			Assigned: []int{v},
			Stats:    CommunityStats{Seed: v, FinalSetSize: 1},
		})
	}

	// Communities freeze at overlap resolution in the parallel model; emit
	// them now, in detection order.
	for _, det := range res.Detections {
		if !d.emit(det) {
			return res, errStreamStop
		}
	}
	return res, nil
}
