package core

import (
	"context"
	"fmt"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// detectSeeds computes one super-step's communities: one Detection per seed,
// in seed order, with Raw and Stats set, appended to dst. Raw must not alias
// a buffer the engine reuses.
type detectSeeds func(ctx context.Context, seeds []int, dst []Detection) ([]Detection, error)

// detectPool is Algorithm 1's pool loop (lines 1–4 and 21–23), the only one:
// the reference engine and the CONGEST engine at every batch size run it.
// Each super-step draws up to max(1, batch) seeds from the pool of
// unassigned vertices, detects their communities, and applies and emits the
// detections in draw order — a detection keeps only the vertices no earlier
// detection claimed — before the next super-step starts. With batch ≤ 1
// every super-step is one uniformly drawn seed: the paper's sequential
// loop, whose seed sampling is identical across engines, which is what makes
// their outputs comparable detection by detection.
//
// With batch > 1 (the CONGEST engine's WithCongestBatch) the seeds of a
// super-step share communication rounds, so the first seed is drawn
// uniformly and the rest outside the 2-hop balls of the seeds already drawn
// (the spreading DetectParallel uses), which makes them likely to land in
// distinct communities. Every detection is still bit-identical to a solo run
// of its seed; batching changes only the pool schedule — up to batch
// communities leave the pool per super-step instead of one — so the round
// count drops by up to the batch factor, while seeds that land in one
// community cost some duplicated messages. batchDraw.extend describes the
// pool tail. The run is deterministic in WithSeed.
func (d *Detector) detectPool(ctx context.Context, batch int, detect detectSeeds) (*Result, error) {
	n := d.g.NumVertices()
	r := rng.New(d.cfg.seed)

	if cap(d.assigned) < n {
		d.assigned = make([]bool, n)
		d.pool = make([]int, n)
	}
	assigned := d.assigned[:n]
	pool := d.pool[:n]
	for v := range pool {
		assigned[v] = false
		pool[v] = v
	}
	var spread *batchDraw
	if batch > 1 {
		spread = newBatchDraw(d.g, batch, d.cfg.minSize)
	}
	// A super-step never draws more seeds than the pool holds, so n bounds
	// the buffer whatever batch asks for.
	seeds := make([]int, 0, min(max(batch, 1), n))
	var step []Detection
	var piece []int // one detection's assigned vertices, before the copy

	res := &Result{}
	for len(pool) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		seeds = append(seeds[:0], pool[r.Intn(len(pool))])
		if spread != nil {
			seeds = spread.extend(r, pool, assigned, seeds)
		}
		var err error
		step, err = detect(ctx, seeds, step[:0])
		if err != nil {
			return nil, fmt.Errorf("core: community of seed %d: %w", seeds[0], err)
		}
		for i, det := range step {
			s := seeds[i]
			// The assigned piece keeps only vertices not already claimed;
			// the seed is kept unless an earlier detection of this
			// super-step claimed it.
			piece = piece[:0]
			for _, v := range det.Raw {
				if !assigned[v] {
					piece = append(piece, v)
					assigned[v] = true
				}
			}
			if !assigned[s] {
				piece = append(piece, s)
				assigned[s] = true
			}
			// A cached Result retains every piece, so each is copied out
			// at its exact size.
			det.Assigned = append(make([]int, 0, len(piece)), piece...)
			res.Detections = append(res.Detections, det)
			if !d.emit(det) {
				return res, errStreamStop
			}
		}

		// Rebuild the pool without the newly assigned vertices.
		nextPool := pool[:0]
		for _, v := range pool {
			if !assigned[v] {
				nextPool = append(nextPool, v)
			}
		}
		pool = nextPool
	}
	return res, nil
}

// batchDraw is the scratch of a batched run's seed draw, allocated once per
// run.
type batchDraw struct {
	g       *graph.Graph
	batch   int
	minSize int
	blocked []bool // balls of the drawn seeds, or the seeded components
	free    []int  // the pool vertices a seed may still be drawn from
	comp    []int  // pool component labels (tail super-steps)
	queue   []int  // poolComponents' BFS scratch
}

func newBatchDraw(g *graph.Graph, batch, minSize int) *batchDraw {
	n := g.NumVertices()
	return &batchDraw{
		g: g, batch: batch, minSize: minSize,
		blocked: make([]bool, n),
		free:    make([]int, 0, n),
		comp:    make([]int, n),
		queue:   make([]int, 0, n),
	}
}

// extend adds up to batch−1 seeds to seeds, which holds the super-step's
// uniform first draw, and returns the grown slice. While the pool holds at
// least batch·R vertices (R = WithMinCommunitySize) the extra seeds are
// ball-spread.
//
// The pool tail — once the pool is smaller than that — sizes its batches
// from the pool's component structure instead: a small pool cannot
// plausibly hold a batch of distinct communities *within one connected
// piece*, and forcing every straggler vertex to walk would run detections
// that one seed per super-step absorbs into one another (a straggler's walk
// can be pathologically long — it is exactly the seed whose community never
// settles). But when the residual pool splits into several components of
// its induced subgraph, the sequential schedule must seed each piece
// separately anyway, so the tail draws up to min(batch, components) seeds,
// one per distinct component, and shares their rounds. A single-component
// tail draws one seed per super-step.
func (b *batchDraw) extend(r *rng.RNG, pool []int, assigned []bool, seeds []int) []int {
	g := b.g
	// len(pool) ≥ batch·R, divided out so that a huge batch cannot overflow
	// the product.
	if len(pool)/b.minSize >= b.batch {
		g.MarkBall2(seeds[0], b.blocked, true)
		for len(seeds) < b.batch && len(seeds) < len(pool) {
			b.free = b.free[:0]
			for _, v := range pool {
				if !b.blocked[v] {
					b.free = append(b.free, v)
				}
			}
			if len(b.free) == 0 {
				break // the pool is one big ball; no spread seeds left
			}
			s := b.free[r.Intn(len(b.free))]
			seeds = append(seeds, s)
			g.MarkBall2(s, b.blocked, true)
		}
		for _, s := range seeds {
			g.MarkBall2(s, b.blocked, false)
		}
		return seeds
	}
	// Straggler tail: one seed per component of the pool-induced subgraph,
	// up to batch. blocked doubles as the seeded-component mask here:
	// component labels live in [0, comps) ⊆ [0, n).
	if poolComponents(g, pool, assigned, b.comp, b.queue) <= 1 {
		return seeds
	}
	b.blocked[b.comp[seeds[0]]] = true
	for len(seeds) < b.batch {
		b.free = b.free[:0]
		for _, v := range pool {
			if !b.blocked[b.comp[v]] {
				b.free = append(b.free, v)
			}
		}
		if len(b.free) == 0 {
			break // every component carries a seed already
		}
		s := b.free[r.Intn(len(b.free))]
		seeds = append(seeds, s)
		b.blocked[b.comp[s]] = true
	}
	for _, s := range seeds {
		b.blocked[b.comp[s]] = false
	}
	return seeds
}

// poolComponents labels the connected components of the subgraph induced by
// the unassigned pool vertices (edges with both endpoints unassigned),
// writing each pool vertex's component into comp and returning the count.
// Labels are assigned in pool order, deterministically. Only pool entries of
// comp are written; queue is BFS scratch. Cost is O(n + vol(pool)) — paid
// once per tail super-step, where it buys shared rounds for every extra
// component.
func poolComponents(g *graph.Graph, pool []int, assigned []bool, comp []int, queue []int) int {
	for _, v := range pool {
		comp[v] = -1
	}
	comps := 0
	for _, v := range pool {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = comps
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(u) {
				if !assigned[w] && comp[w] < 0 {
					comp[w] = comps
					queue = append(queue, int(w))
				}
			}
		}
		comps++
	}
	return comps
}
