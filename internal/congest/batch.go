package congest

import (
	"context"
	"fmt"
	"time"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
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
// package's only detection loop: DetectCommunity is a batch of one seed and
// Detect's pool loop runs one batch per super-step. The per-round flooding
// of all walks is fused into one pass over the adjacency arrays, and the
// load observer receives per-link aggregate word counts per shared round
// (LinkLoad), which is what the k-machine converter consumes.

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

// detectBatch is the CONGEST detection loop, behind DetectBatchContext,
// DetectCommunityContext (a batch of one) and Detect's pool loop; the
// caller has validated inputs and installed the run context.
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
	degInv := nw.degInvTable()

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
	for l := 1; active > 0; l++ {
		if err := nw.interrupted(); err != nil {
			return nil, err
		}
		// Flood phase: one shared round advances every live walk's
		// distribution (Algorithm 1 lines 9–11, batched).
		var t0 time.Time
		if nw.tr != nil {
			t0 = time.Now()
		}
		nw.beginPhase()
		batchFlood(nw, walks, degInv, counts)
		nw.endPhase()

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

// floodTile is the gather tile of batchFlood: each worker streams through
// tile-sized slices of the output array (8·tile = 256 KiB of next per tile,
// L2-resident) while reading the share table through the CSR neighbour
// lists.
const floodTile = 1 << 15

// batchFlood performs one shared communication round of probability flooding
// (Algorithm 1 lines 9–11) for every live walk: every node holding a walk's
// mass sends p(v)/d(v) to each neighbour, and every node sums what it
// receives; isolated nodes keep their mass. It is the package's one flood
// kernel — a one-walk run (DetectCommunity, EstimateConductance) floods
// through it with a single walk. Accounting: each walk is charged its own
// round and its own per-neighbour messages, while the load observer sees
// the aggregate — link (v,w) carries one word per live walk holding mass at
// v, reported as a single LinkLoad with that multiplicity.
//
// The computation is fused and blocked. An interleave pass freezes every
// live walk's outgoing shares into rows of shareAll (row v holds the k
// walks' shares p(v)·(1/d(v)) side by side on one cache line); then a tiled
// gather pulls each neighbour list once and accumulates every walk from the
// row its neighbour ids address — k walks cost one random-access stream of
// k-wide rows where the unblocked kernel (floodStepReference, kept in
// floodkernel_test.go) chases two scattered streams, p and 1/d, per walk.
// Each share is the exact product the unblocked kernel computes and the
// accumulation order over neighbours is the CSR order, so every walk's
// evolved distribution is bit-identical to flooding it alone.
func batchFlood(nw *Network, walks []*batchWalk, degInv []float64, counts []int32) {
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
	if observing {
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
	if nw.transport != nil {
		// Pluggable round transport: the lane and load accounting above
		// already happened; hand the live walks' numeric evolution over as
		// one batch of frames (lane order), which is the coalesced per-round
		// payload a real network ships.
		frames := nw.frameBuf[:0]
		for _, w := range walks {
			if !w.trk.Done() {
				frames = append(frames, FloodFrame{P: w.p, Next: w.next})
			}
		}
		nw.frameBuf = frames
		nw.floodRemote(frames)
		for _, w := range walks {
			if !w.trk.Done() {
				w.p, w.next = w.next, w.p
			}
		}
		return
	}
	n := g.NumVertices()
	k := len(walks)
	shareAll := nw.floodShareAll(n * k)
	for v := 0; v < n; v++ {
		row := shareAll[v*k : v*k+k]
		dv := degInv[v]
		for j, w := range walks {
			if !w.trk.Done() {
				row[j] = w.p[v] * dv
			}
		}
	}
	nw.parallelRanges(n, floodTile, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			ns := g.Neighbors(u)
			for j, w := range walks {
				if w.trk.Done() {
					continue
				}
				sum := 0.0
				for _, nb := range ns {
					sum += shareAll[int(nb)*k+j]
				}
				if len(ns) == 0 {
					sum = w.p[u] // isolated nodes keep their mass
				}
				w.next[u] = sum
			}
		}
	})
	for _, w := range walks {
		if !w.trk.Done() {
			w.p, w.next = w.next, w.p
		}
	}
}

// detectBatchedPool is Detect's pool loop: each super-step draws up to
// max(1, Batch) seeds from the pool of unassigned
// vertices — the first uniformly, the rest spread outside the 2-hop balls of
// the seeds already drawn, the same spreading DetectParallel uses — runs
// them as one DetectBatch, and applies the detections in draw order (a
// vertex claimed by an earlier detection of the same super-step is simply
// not re-assigned, exactly as with one seed per super-step). Every
// detection's community and per-walk stats are bit-identical to
// DetectCommunity of its seed; the batch only changes the pool schedule —
// Batch communities leave the pool per super-step instead of one — so the
// total round count drops by up to the batch factor, while seeds that land
// in one community cost some duplicated messages. The run is fully
// deterministic in cfg.Seed. With Batch ≤ 1 every super-step is one
// uniformly drawn seed: Algorithm 1's sequential pool loop.
//
// The pool tail — once the pool is smaller than Batch·MinCommunitySize —
// sizes its batches from the pool's component structure instead of the
// fixed guard: a small pool cannot plausibly hold a batch of distinct
// communities *within one connected piece*, and forcing every straggler
// vertex to walk would run detections that one seed per super-step absorbs
// into one another (a straggler's walk can be pathologically long — it is
// exactly the seed whose community never settles). But when the residual
// pool splits into several components of its induced subgraph, the
// sequential schedule must seed each piece separately anyway, so the tail
// draws up to min(Batch, components) seeds, one per distinct component, and
// shares their rounds. A single-component tail draws one seed per
// super-step.
func detectBatchedPool(nw *Network, cfg Config) (*Result, error) {
	g := nw.Graph()
	n := g.NumVertices()
	r := rng.New(cfg.Seed)
	assigned := make([]bool, n)
	blocked := make([]bool, n)
	pool := make([]int, n)
	for v := range pool {
		pool[v] = v
	}
	// A super-step never draws more seeds than the pool holds, so n bounds
	// the buffer whatever Batch asks for.
	seeds := make([]int, 0, min(cfg.Batch, n))
	free := make([]int, 0, n)
	comp := make([]int, n)
	queue := make([]int, 0, n)
	res := &Result{}
	before := nw.Metrics()
	for len(pool) > 0 {
		if err := nw.interrupted(); err != nil {
			return nil, fmt.Errorf("congest: %w", err)
		}
		// Draw the super-step's seeds: first uniform, rest ball-spread.
		seeds = append(seeds[:0], pool[r.Intn(len(pool))])
		// len(pool) ≥ Batch·MinCommunitySize, divided out so that a huge
		// Batch cannot overflow the product.
		if cfg.Batch > 1 && len(pool)/cfg.MinCommunitySize >= cfg.Batch {
			for _, u := range g.Ball(seeds[0], 2) {
				blocked[u] = true
			}
			for len(seeds) < cfg.Batch && len(seeds) < len(pool) {
				free = free[:0]
				for _, v := range pool {
					if !blocked[v] {
						free = append(free, v)
					}
				}
				if len(free) == 0 {
					break // the pool is one big ball; no spread seeds left
				}
				s := free[r.Intn(len(free))]
				seeds = append(seeds, s)
				for _, u := range g.Ball(s, 2) {
					blocked[u] = true
				}
			}
			for _, s := range seeds {
				for _, u := range g.Ball(s, 2) {
					blocked[u] = false
				}
			}
		} else if cfg.Batch > 1 {
			// Straggler tail: the batch size follows the pool's component
			// structure. Disjoint pieces of the pool-induced subgraph need a
			// seed each regardless of the schedule, so one seed per
			// component (up to Batch) shares their rounds for free.
			if comps := poolComponents(g, pool, assigned, comp, queue); comps > 1 {
				// blocked doubles as the seeded-component mask here: component
				// labels live in [0, comps) ⊆ [0, n), and the ball-spread
				// branch (which also uses blocked) is unreachable this
				// super-step.
				blocked[comp[seeds[0]]] = true
				for len(seeds) < cfg.Batch {
					free = free[:0]
					for _, v := range pool {
						if !blocked[comp[v]] {
							free = append(free, v)
						}
					}
					if len(free) == 0 {
						break // every component carries a seed already
					}
					s := free[r.Intn(len(free))]
					seeds = append(seeds, s)
					blocked[comp[s]] = true
				}
				for _, s := range seeds {
					blocked[comp[s]] = false
				}
			}
		}
		dets, err := detectBatch(nw, seeds, cfg)
		if err != nil {
			return nil, fmt.Errorf("congest: batch of seed %d: %w", seeds[0], err)
		}
		for i, det := range dets {
			s := seeds[i]
			kept := make([]int, 0, len(det.Community))
			for _, v := range det.Community {
				if !assigned[v] {
					kept = append(kept, v)
					assigned[v] = true
				}
			}
			if !assigned[s] {
				kept = append(kept, s)
				assigned[s] = true
			}
			res.Detections = append(res.Detections, Detection{Raw: det.Community, Assigned: kept, Stats: det.Stats})
		}
		nextPool := pool[:0]
		for _, v := range pool {
			if !assigned[v] {
				nextPool = append(nextPool, v)
			}
		}
		pool = nextPool
	}
	res.Metrics = nw.Metrics()
	res.Metrics.Rounds -= before.Rounds
	res.Metrics.Messages -= before.Messages
	return res, nil
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
