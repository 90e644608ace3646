package congest

import (
	"math"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
)

// key orders nodes by (x value, id) — the deterministic tie-break both
// engines share. The paper instead perturbs x_u by a tiny random value to
// make all values distinct; lexicographic (x, id) order achieves the same
// effect deterministically.
type key struct {
	x  float64
	id int32
}

func keyLess(a, b key) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return a.id < b.id
}

// keyLE reports a ≤ b in (x, id) order.
func keyLE(a, b key) bool {
	return a.x < b.x || (a.x == b.x && a.id <= b.id)
}

var (
	minusInfKey = key{x: math.Inf(-1), id: -1}
	plusInfKey  = key{x: math.Inf(1), id: math.MaxInt32}
)

// sizeResult is one candidate size's distributed selection, computed
// without touching the network: the threshold key T such that exactly k
// nodes hold a key ≤ T, the sum of their x values, and the communication the
// search used — casts leading convergecasts, then pairs broadcast +
// convergecast pairs. replaySelection charges that communication; ok=false
// means the search failed (k out of range) or was abandoned because the run
// stopped.
type sizeResult struct {
	threshold key
	sum       float64
	ok        bool
	casts     int
	pairs     int
}

// replaySelection charges a computed selection's communication in protocol
// order: the leading convergecasts (the global min/max, plus the total sum
// when every node is selected), then one broadcast of mid and one
// convergecast of the partial aggregates per binary-search iteration. A
// cancelled run stops between iterations, as the search itself does.
func (nw *Network) replaySelection(t *Tree, r sizeResult) {
	for i := 0; i < r.casts; i++ {
		nw.convergecast(t)
	}
	for i := 0; i < r.pairs; i++ {
		if nw.interrupted() != nil {
			return
		}
		nw.broadcast(t)
		nw.convergecast(t)
	}
}

// selectionAggregate is the O(1)-word partial aggregate convergecast up the
// tree in one binary-search iteration: the count and x-sum of keys ≤ mid,
// the largest key ≤ mid and the smallest key > mid.
type selectionAggregate struct {
	countLe int
	sumLe   float64
	maxLe   key
	minGt   key
}

// aggregate scans the covered nodes and computes the iteration's aggregate.
// In the real protocol every node contributes its O(1)-word partial result
// up the BFS tree; the simulation computes the same answer centrally.
func aggregate(covered []int32, x []float64, mid key) selectionAggregate {
	agg := selectionAggregate{maxLe: minusInfKey, minGt: plusInfKey}
	for _, v := range covered {
		k := key{x: x[v], id: v}
		if keyLE(k, mid) {
			agg.countLe++
			agg.sumLe += k.x
			if keyLess(agg.maxLe, k) {
				agg.maxLe = k
			}
		} else if keyLess(k, agg.minGt) {
			agg.minGt = k
		}
	}
	return agg
}

// midKey bisects the search bracket: while the value range is open it
// splits on x; once the bracket collapses to a single x value it splits on
// node ids (the tie-break dimension).
func midKey(lo, hi key) key {
	if lo.x < hi.x {
		midx := lo.x + (hi.x-lo.x)/2
		if midx >= hi.x { // float underflow: adjacent representable values
			midx = lo.x
		}
		return key{x: midx, id: math.MaxInt32}
	}
	return key{x: lo.x, id: lo.id + (hi.id-lo.id)/2}
}

// scanSelect runs the distributed binary search of Algorithm 1 line 14 over
// the covered nodes: the root finds the threshold key T such that exactly k
// covered nodes have key ≤ T, along with the sum of their x values. Every
// iteration costs one broadcast (the root ships mid down the tree) plus one
// convergecast (the partial aggregates flow up), 2·depth rounds in total,
// and the iteration count is O(log n) because each step halves either the
// candidate value range or the candidate id range. Fewer than k covered
// nodes fail the search.
func (nw *Network) scanSelect(covered []int32, x []float64, k int) sizeResult {
	if k <= 0 || k > len(covered) {
		return sizeResult{}
	}
	// Initial convergecast: global (min, max) of the keys (§III: "All the
	// nodes send xmin and xmax to the root through a convergecast").
	res := sizeResult{casts: 1}
	lo, hi := plusInfKey, minusInfKey
	for _, v := range covered {
		kk := key{x: x[v], id: v}
		if keyLess(kk, lo) {
			lo = kk
		}
		if keyLess(hi, kk) {
			hi = kk
		}
	}
	if k == len(covered) {
		// Every covered node is selected; one more convergecast ships the
		// total sum to the root.
		res.casts++
		res.threshold, res.sum, res.ok = hi, aggregate(covered, x, hi).sumLe, true
		return res
	}
	// Iterate: broadcast mid, convergecast the aggregate, shrink the
	// bracket towards the k-th smallest key. The invariant is
	// count(≤ lo) ≤ k ≤ count(≤ hi). A stopped run abandons the search.
	for iter := 0; iter < 256; iter++ {
		if nw.stopped() {
			return res
		}
		res.pairs++
		if lo == hi {
			agg := aggregate(covered, x, lo)
			// countLe ≠ k cannot happen with distinct keys; it guards
			// against misuse.
			res.threshold, res.sum, res.ok = lo, agg.sumLe, agg.countLe == k
			return res
		}
		agg := aggregate(covered, x, midKey(lo, hi))
		switch {
		case agg.countLe == k:
			res.threshold, res.sum, res.ok = agg.maxLe, agg.sumLe, true
			return res
		case agg.countLe > k:
			hi = agg.maxLe
		default:
			lo = agg.minGt
		}
	}
	// 256 iterations bound the bisection of a 64-bit float range plus a
	// 32-bit id range many times over; reaching this is a bug.
	return res
}

// selScratch is one ladder worker's selection state: its own copy of the
// walk step's off-support stream (re-targeted per size by SetMu), the
// support's x values in ascending vertex order, and the bisection's working
// set of explicit keys — or, on the covered-scan path, the covered nodes' x
// values indexed by vertex — plus the size's degree table.
type selScratch struct {
	off  rw.OffSupportStream
	xsup []float64
	keys []key
	x    []float64
	t    []float64
}

// degreeTable returns the size's degree table (rw.DegreeIndex.DegreeTable)
// when it saves divisions, that is when fewer distinct degrees exist than
// count x values are to be computed, and nil otherwise.
func (sc *selScratch) degreeTable(idx *rw.DegreeIndex, size int, muPrime float64, count int) []float64 {
	if idx.MaxDegree() >= count {
		return nil
	}
	sc.t = idx.DegreeTable(size, muPrime, sc.t)
	return sc.t
}

// xValue is rw.XValueAt for vertex u of degree d, with the degree term read
// from the size's degree table t, or divided per vertex when t is nil (then
// the graph has edges, so µ' > 0); both agree with XValueAt bit for bit.
func xValue(p rw.Dist, t []float64, u, d int, muPrime float64) float64 {
	if t != nil {
		return math.Abs(p[u] - t[d])
	}
	return math.Abs(p[u] - float64(d)/muPrime)
}

// selectIndexed is scanSelect for the whole-graph case (the BFS tree covers
// every vertex, so the off-support population is exactly the complement of
// the walk's support nw.support): on-support nodes are aggregated from
// their explicit keys and off-support nodes answer the root from the degree
// index (sc.off) — their x_u = d(u)/µ' depends on their degree alone, so
// an iteration costs O(support + log²n) instead of a scan over every node.
// The search visits exactly scanSelect's iteration sequence, because every
// aggregate the bisection branches on (count-≤, max-≤, min->) ranges over
// the same key set.
//
// It only reads the network, so ladder workers run it concurrently, each
// with its own scratch. One pass computes the support's x values, their
// keys and the keys' min/max; each bisection iteration is one partition
// pass over the keys still inside the bracket.
//
// The returned sum is the canonical mixing sum (rw.MixingSum): on-support
// terms accumulated in ascending vertex order plus the off-support tail as
// one exact integer degree sum divided by µ' — the same summation the
// in-memory sweeps use, computed without enumerating a single off-support
// node. µ' = MuPrime(g, size) must be positive.
func (nw *Network) selectIndexed(sc *selScratch, idx *rw.DegreeIndex, p rw.Dist, size int, muPrime float64) sizeResult {
	g := nw.g
	n := g.NumVertices()
	k := size
	if k <= 0 || k > n {
		return sizeResult{}
	}
	off := &sc.off
	off.SetMu(muPrime)
	nOff := off.Len()
	offKey := func(j int) key {
		x, id := off.KeyAt(j)
		return key{x: x, id: id}
	}
	support := nw.support
	xs := sc.xsup[:0]
	keys := sc.keys[:0]
	t := sc.degreeTable(idx, size, muPrime, len(support))
	// Initial convergecast: global (min, max) of the keys.
	lo, hi := plusInfKey, minusInfKey
	for _, v := range support {
		kk := key{x: xValue(p, t, int(v), g.Degree(int(v)), muPrime), id: v}
		xs = append(xs, kk.x)
		keys = append(keys, kk)
		if keyLess(kk, lo) {
			lo = kk
		}
		if keyLess(hi, kk) {
			hi = kk
		}
	}
	sc.xsup, sc.keys = xs, keys
	if nOff > 0 {
		if kk := offKey(0); keyLess(kk, lo) {
			lo = kk
		}
		if kk := offKey(nOff - 1); keyLess(hi, kk) {
			hi = kk
		}
	}
	res := sizeResult{casts: 1}
	// done accepts threshold T: the canonical sum of every key ≤ T.
	done := func(threshold key) sizeResult {
		onSum := 0.0
		for i, v := range support {
			if keyLE(key{x: xs[i], id: v}, threshold) {
				onSum += xs[i]
			}
		}
		cOff := off.CountLE(threshold.x, threshold.id)
		res.threshold, res.ok = threshold, true
		res.sum = rw.MixingSum(onSum, off.PrefixDeg(cOff), cOff, muPrime, size)
		return res
	}
	if k == n {
		// Every node is selected; one more convergecast ships the sum.
		res.casts++
		return done(hi)
	}
	// The explicit keys still inside the search bracket [lo, hi] are the
	// working set. A key that leaves the bracket keeps its classification
	// for the rest of the search, so it is folded into running summaries
	// (count and maximum of the keys below, minimum of the keys above) and
	// never scanned again: each iteration partitions only the keys the
	// bisection is still uncertain about — geometrically fewer each time —
	// while computing aggregates identical to a full scan.
	cntBelow := 0
	maxBelow, minAbove := minusInfKey, plusInfKey
	for iter := 0; iter < 256; iter++ {
		if nw.stopped() {
			return res
		}
		res.pairs++
		if lo == hi {
			cnt := cntBelow + off.CountLE(lo.x, lo.id)
			for _, kk := range keys {
				if keyLE(kk, lo) {
					cnt++
				}
			}
			if cnt != k {
				// Cannot happen with distinct keys; guard against misuse.
				return res
			}
			return done(lo)
		}
		mid := midKey(lo, hi)
		// Partition: keys ≤ mid move to the front (keys[:w]); record their
		// maximum and the minimum of the rest.
		w := 0
		maxIn, minIn := minusInfKey, plusInfKey
		for i, kk := range keys {
			if keyLE(kk, mid) {
				keys[i] = keys[w]
				keys[w] = kk
				w++
				if keyLess(maxIn, kk) {
					maxIn = kk
				}
			} else if keyLess(kk, minIn) {
				minIn = kk
			}
		}
		// Aggregate: retired keys contribute through their summaries (every
		// retired below-key is ≤ lo ≤ mid and every retired above-key is >
		// hi ≥ mid), the off-support stream through the degree index.
		cOff := off.CountLE(mid.x, mid.id)
		countLe := cntBelow + w + cOff
		maxLe, minGt := maxBelow, minAbove
		if keyLess(maxLe, maxIn) {
			maxLe = maxIn
		}
		if keyLess(minIn, minGt) {
			minGt = minIn
		}
		if cOff > 0 {
			if kk := offKey(cOff - 1); keyLess(maxLe, kk) {
				maxLe = kk
			}
		}
		if cOff < nOff {
			if kk := offKey(cOff); keyLess(kk, minGt) {
				minGt = kk
			}
		}
		switch {
		case countLe == k:
			return done(maxLe)
		case countLe > k:
			// hi = maxLe ≤ mid, and no key lies in (maxLe, mid]: the keys
			// above mid leave the bracket.
			hi = maxLe
			if keyLess(minIn, minAbove) {
				minAbove = minIn
			}
			keys = keys[:w]
		default:
			// lo = minGt > mid: the keys ≤ mid leave the bracket.
			lo = minGt
			cntBelow += w
			if keyLess(maxBelow, maxIn) {
				maxBelow = maxIn
			}
			keys = keys[w:]
		}
	}
	// See the iteration bound note on scanSelect.
	return res
}

// canonicalCoveredSum folds the keys ≤ threshold into the canonical mixing
// sum shared with the in-memory sweeps (rw.MixingSum): on-support terms
// individually in ascending vertex order, the off-support tail as one exact
// integer degree sum. The covered-scan selection path uses it so that both
// selection implementations — and both engines — decide the mixing condition
// on bit-identical sums.
func canonicalCoveredSum(g *graph.Graph, p rw.Dist, covered []int32, x []float64, threshold key, muPrime float64, size int) float64 {
	onSum := 0.0
	var offDeg int64
	offCount := 0
	for _, v := range covered {
		kk := key{x: x[v], id: v}
		if keyLE(kk, threshold) {
			if p[v] != 0 {
				onSum += x[v]
			} else {
				offDeg += int64(g.Degree(int(v)))
				offCount++
			}
		}
	}
	return rw.MixingSum(onSum, offDeg, offCount, muPrime, size)
}
