package congest

import (
	"math"

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

// selScratch is one ladder worker's selection state: its own copy of the
// walk step's off-support stream (re-targeted per size by SetMu), the
// support's x values in ascending vertex order, the bisection's working set
// of explicit keys, and the size's degree table.
type selScratch struct {
	off  rw.OffSupportStream
	xsup []float64
	keys []key
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
// the maximum degree is at least 1, so µ' > 0); both agree with XValueAt
// bit for bit.
func xValue(p rw.Dist, t []float64, u, d int, muPrime float64) float64 {
	if t != nil {
		return math.Abs(p[u] - t[d])
	}
	return math.Abs(p[u] - float64(d)/muPrime)
}

// selectIndexed runs the distributed binary search of Algorithm 1 line 14
// over the nodes the BFS tree covers: the root finds the threshold key T
// such that exactly k = size covered nodes have key ≤ T, along with the sum
// of their x values. Every iteration costs one broadcast (the root ships
// mid down the tree) plus one convergecast (the O(1)-word partial
// aggregates flow up: the count and x-sum of the keys ≤ mid, the largest
// key ≤ mid and the smallest key > mid), 2·depth rounds in total, and the
// iteration count is O(log n) because each step halves either the candidate
// value range or the candidate id range. Fewer than k covered nodes fail
// the search.
//
// The simulator computes each aggregate centrally from two populations that
// together are the covered nodes. The covered nodes that hold mass
// (nw.support) contribute their explicit keys. The covered nodes that hold
// none answer from the degree index (sc.off): their x_u = d(u)/µ' depends on
// their degree alone, so an iteration costs O(support + log²n) instead of a
// scan over every covered node.
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
// node. µ' = MuPrime(g, size) is positive unless the graph has no edge; the
// tree then holds only its root, which keeps its mass, so the stream is
// empty and never divides.
func (nw *Network) selectIndexed(sc *selScratch, idx *rw.DegreeIndex, p rw.Dist, size int, muPrime float64) sizeResult {
	g := nw.g
	off := &sc.off
	off.SetMu(muPrime)
	nOff := off.Len()
	support := nw.support
	k, covered := size, len(support)+nOff
	if k <= 0 || k > covered {
		return sizeResult{}
	}
	offKey := func(j int) key {
		x, id := off.KeyAt(j)
		return key{x: x, id: id}
	}
	xs := sc.xsup[:0]
	keys := sc.keys[:0]
	t := sc.degreeTable(idx, size, muPrime, len(support))
	// Initial convergecast: global (min, max) of the keys (§III: "All the
	// nodes send xmin and xmax to the root through a convergecast").
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
	if k == covered {
		// Every covered node is selected; one more convergecast ships the
		// sum.
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
	// 256 iterations bound the bisection of a 64-bit float range plus a
	// 32-bit id range many times over; reaching this is a bug.
	return res
}
