package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// DetectParallel implements the extension sketched in the paper's
// conclusion: "our algorithm can also be extended to find communities even
// faster (by finding communities in parallel), assuming we know an
// (estimate) of r". It draws r seeds and detects their communities
// concurrently: min(r, GOMAXPROCS) workers claim seeds from a shared cursor
// and run each seed's whole solo detection — the walk loop DetectCommunity
// and the pool loop run — each on its own walk engine over the detector's
// one degree index, so every walk's detection equals DetectCommunity of its
// seed whichever worker ran it. It then resolves overlaps
// deterministically: a vertex claimed by several detections goes to the one
// whose seed was drawn first. Vertices claimed by no detection are attached
// to the claiming community most frequent among their neighbours (one
// label-propagation step), or form singletons if they have no claimed
// neighbour.
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

// DetectParallelContext is DetectParallel with cancellation: every worker
// polls ctx between walk steps and between ladder sizes, and the first
// worker error (or the caller's cancellation) cancels the other workers
// before the run unwinds.
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
		g.MarkBall2(s, blocked, true)
	}
	d.parSeeds = seeds

	// Detect every seed's community on min(r, GOMAXPROCS) workers, the
	// caller's goroutine being worker 0. The first worker error cancels
	// sctx, which the other workers poll between walk steps and between
	// ladder sizes; the run's trace rides sctx too. The detector retains
	// the workers' walk engines and trackers: repeat runs Reset them
	// instead of rebuilding.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := d.beginRun(sctx)
	defer d.endRun()
	workers := min(r, runtime.GOMAXPROCS(0))
	for len(d.parWalks) < workers {
		d.parWalks = append(d.parWalks, rw.NewWalkEngineWithIndex(g, d.degreeIndex()))
		d.parTrackers = append(d.parTrackers, &rw.CommunityTracker{})
	}
	if cap(d.parErrs) < r {
		d.parErrs = make([]error, r)
	}
	errs := d.parErrs[:r]
	clear(errs)
	res := &Result{Detections: make([]Detection, r)}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	work := func(w int) {
		defer wg.Done()
		for {
			i := int(cursor.Add(1) - 1)
			if i >= r {
				return
			}
			raw, stats, err := detectCommunity(sctx, d.parWalks[w], d.parTrackers[w], seeds[i], cfg)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			// raw is the tracker's buffer, which the worker's next seed
			// rewinds; Result slices stay safe to retain.
			res.Detections[i] = Detection{Raw: append([]int(nil), raw...), Stats: stats}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
	// The first genuine worker error wins: once one worker fails and
	// cancels sctx, the others abort with the induced context error, which
	// must not mask the root cause. Pure context errors (the caller
	// cancelled) surface as such.
	var ctxErr error
	ctxSeed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("core: parallel community of seed %d: %w", seeds[i], err)
		}
		if ctxErr == nil {
			ctxErr, ctxSeed = err, seeds[i]
		}
	}
	if ctxErr != nil {
		return nil, fmt.Errorf("core: parallel community of seed %d: %w", ctxSeed, ctxErr)
	}

	// Resolve overlaps: earlier seed index wins.
	if cap(d.parOwner) < n {
		d.parOwner = make([]int, n)
	}
	owner := d.parOwner[:n]
	for v := range owner {
		owner[v] = -1
	}
	for i := range res.Detections {
		det := &res.Detections[i]
		det.Assigned = make([]int, 0, len(det.Raw))
		for _, v := range det.Raw {
			if owner[v] < 0 {
				owner[v] = i
				det.Assigned = append(det.Assigned, v)
			}
		}
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
	// A cached Result retains every piece, so each is copied out at its
	// exact size once the appends above are done.
	for i := range res.Detections {
		det := &res.Detections[i]
		det.Assigned = append(make([]int, 0, len(det.Assigned)), det.Assigned...)
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
