package congest

import (
	"math"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
)

// This file keeps the covered-scan selection and the sequential mixing-set
// sweep as the references the production selection (selectIndexed) and the
// concurrent ladder (evalLadder + replaySelection) are equivalence-tested
// against. The scan aggregates over every covered node per binary-search
// iteration; the sequential sweep runs one selection after another, each
// charging its broadcasts and convergecasts before the next size starts,
// message by message through the per-message collectives (lane_test.go).
// It also holds the thin selection helpers the unit tests drive.

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

// scanSelect is the distributed binary search of Algorithm 1 line 14 as a
// scan over the covered nodes' x values (indexed by vertex): the iteration
// sequence selectIndexed must reproduce, with the plain sum of the selected
// x values. Fewer than k covered nodes fail the search.
func (nw *Network) scanSelect(covered []int32, x []float64, k int) sizeResult {
	if k <= 0 || k > len(covered) {
		return sizeResult{}
	}
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
		res.casts++
		res.threshold, res.sum, res.ok = hi, aggregate(covered, x, hi).sumLe, true
		return res
	}
	for iter := 0; iter < 256; iter++ {
		if nw.stopped() {
			return res
		}
		res.pairs++
		if lo == hi {
			agg := aggregate(covered, x, lo)
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
	return res
}

// canonicalCoveredSum folds the covered keys ≤ threshold into the canonical
// mixing sum (rw.MixingSum): on-support terms individually in ascending
// vertex order, the off-support tail as one exact integer degree sum — the
// sum selectIndexed must return for the scan's threshold.
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

// selectKSmallest runs one covered-scan selection and charges its
// communication: the sequential composition the sweep performs per size.
// The returned sum is the plain sum of the selected x values.
func (nw *Network) selectKSmallest(t *Tree, covered []int32, x []float64, k int) (key, float64, bool) {
	r := nw.scanSelect(covered, x, k)
	nw.replaySelection(t, r)
	return r.threshold, r.sum, r.ok
}

// selectKSmallestIndexed runs one degree-indexed selection of p's size-k
// candidate set over the covered vertices (ascending), split into the
// support table and the off-support stream by evalLadder's prepareStep,
// decides its mixing test against the paper's 1/2e and charges its
// communication.
func (nw *Network) selectKSmallestIndexed(t *Tree, p rw.Dist, covered []int32, muPrime float64, size int) sizeResult {
	nw.prepareStep(p, covered)
	sc := &selScratch{off: nw.off}
	r := nw.selectIndexed(sc, nw.degreeIndex(), size, muPrime, rw.MixingThreshold)
	nw.replaySelection(t, r)
	return r
}

// matchesSum reports whether selection r agrees with a reference's
// canonical sum: the same mixing decision against theta, and the same bits
// wherever r computed the sum. A failed selection decides nothing.
func matchesSum(r sizeResult, sum, theta float64) bool {
	if !r.ok {
		return !r.mixes && !r.summed
	}
	return r.mixes == (sum < theta) && (!r.summed || math.Float64bits(r.sum) == math.Float64bits(sum))
}

// largestMixingSetReference is the sequential sweep: largestMixingSet with
// every size selected by the covered scan, and charged, before the next one
// starts.
func (nw *Network) largestMixingSetReference(tree *Tree, covered []int32, p rw.Dist, x []float64, ladder []int, mixThreshold float64) (rw.MixingSet, error) {
	g := nw.Graph()
	n := g.NumVertices()
	var (
		bestThreshold key
		bestSize      int
		found         bool
		bestX         = math.NaN()
	)
	for _, size := range ladder {
		if err := nw.interrupted(); err != nil {
			return rw.MixingSet{}, err
		}
		muPrime := rw.MuPrime(g, size)
		for u := 0; u < n; u++ {
			x[u] = rw.XValueAt(g, p, u, size, muPrime)
		}
		threshold, _, ok := nw.selectKSmallestReference(tree, covered, x, size)
		if ok && canonicalCoveredSum(g, p, covered, x, threshold, muPrime, size) < mixThreshold {
			bestThreshold = threshold
			bestSize = size
			bestX = muPrime
			found = true
		}
	}
	if err := nw.interrupted(); err != nil {
		return rw.MixingSet{}, err
	}
	ms := rw.MixingSet{SizesChecked: len(ladder)}
	if !found {
		return ms, nil
	}
	nw.broadcastReference(tree)
	ms.Vertices = make([]int, 0, bestSize)
	for _, v := range covered {
		k := key{x: rw.XValueAt(g, p, int(v), bestSize, bestX), id: v}
		if keyLess(k, bestThreshold) || k == bestThreshold {
			ms.Vertices = append(ms.Vertices, int(v))
		}
	}
	return ms, nil
}

// selectKSmallestReference is the covered-scan selection charged message by
// message: scanSelect's convergecasts first, then one broadcast +
// convergecast per binary-search iteration, in the order replaySelection
// charges them with one call per collective.
func (nw *Network) selectKSmallestReference(t *Tree, covered []int32, x []float64, k int) (key, float64, bool) {
	r := nw.scanSelect(covered, x, k)
	for i := 0; i < r.casts; i++ {
		nw.convergecastReference(t)
	}
	for i := 0; i < r.pairs; i++ {
		if nw.interrupted() != nil {
			return key{}, 0, false
		}
		nw.broadcastReference(t)
		nw.convergecastReference(t)
	}
	return r.threshold, r.sum, r.ok
}

// selectKSmallestIndexedReference is the sequential degree-indexed binary
// search over the covered support's precomputed x values xsup and the
// stream off of the covered nodes without mass: separate passes for the key
// copy, min/max, each iteration's aggregate and its shrink, with the
// communication charged inline.
func (nw *Network) selectKSmallestIndexedReference(t *Tree, support []int32, xsup []float64, off *rw.OffSupportStream, muPrime float64, size int) (key, float64, bool) {
	nOff := off.Len()
	k, n := size, len(support)+nOff
	if k <= 0 || k > n {
		return key{}, 0, false
	}
	offKey := func(j int) key {
		x, id := off.KeyAt(j)
		return key{x: x, id: id}
	}
	sumLe := func(threshold key) float64 {
		onSum := 0.0
		for i, v := range support {
			kk := key{x: xsup[i], id: v}
			if keyLess(kk, threshold) || kk == threshold {
				onSum += xsup[i]
			}
		}
		cOff := off.CountLE(threshold.x, threshold.id)
		return rw.MixingSum(onSum, off.PrefixDeg(cOff), cOff, muPrime, size)
	}
	ents := make([]key, 0, len(support))
	for i, v := range support {
		ents = append(ents, key{x: xsup[i], id: v})
	}
	cntBelow := 0
	maxBelow, minAbove := minusInfKey, plusInfKey
	nw.convergecastReference(t)
	lo, hi := plusInfKey, minusInfKey
	for _, kk := range ents {
		if keyLess(kk, lo) {
			lo = kk
		}
		if keyLess(hi, kk) {
			hi = kk
		}
	}
	if nOff > 0 {
		if kk := offKey(0); keyLess(kk, lo) {
			lo = kk
		}
		if kk := offKey(nOff - 1); keyLess(hi, kk) {
			hi = kk
		}
	}
	if k == n {
		nw.convergecastReference(t)
		return hi, sumLe(hi), true
	}
	for iter := 0; iter < 256; iter++ {
		if nw.interrupted() != nil {
			return key{}, 0, false
		}
		if lo == hi {
			nw.broadcastReference(t)
			nw.convergecastReference(t)
			cnt := cntBelow + off.CountLE(lo.x, lo.id)
			for _, kk := range ents {
				if keyLess(kk, lo) || kk == lo {
					cnt++
				}
			}
			if cnt != k {
				return key{}, 0, false
			}
			return lo, sumLe(lo), true
		}
		mid := midKey(lo, hi)
		nw.broadcastReference(t)
		nw.convergecastReference(t)
		cIn := 0
		maxLe, minGt := maxBelow, minAbove
		for _, kk := range ents {
			if keyLess(kk, mid) || kk == mid {
				cIn++
				if keyLess(maxLe, kk) {
					maxLe = kk
				}
			} else if keyLess(kk, minGt) {
				minGt = kk
			}
		}
		cOff := off.CountLE(mid.x, mid.id)
		countLe := cntBelow + cIn + cOff
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
			return maxLe, sumLe(maxLe), true
		case countLe > k:
			hi = maxLe
			w := 0
			for _, kk := range ents {
				if keyLess(hi, kk) {
					if keyLess(kk, minAbove) {
						minAbove = kk
					}
					continue
				}
				ents[w] = kk
				w++
			}
			ents = ents[:w]
		default:
			lo = minGt
			w := 0
			for _, kk := range ents {
				if keyLess(lo, kk) {
					ents[w] = kk
					w++
					continue
				}
				cntBelow++
				if keyLess(maxBelow, kk) {
					maxBelow = kk
				}
			}
			ents = ents[:w]
		}
	}
	return key{}, 0, false
}
