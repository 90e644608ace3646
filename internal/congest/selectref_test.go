package congest

import (
	"math"

	"cdrw/internal/rw"
)

// This file keeps the sequential mixing-set sweep the concurrent ladder
// (evalLadder + replaySelection) replaced, as the reference the ladder's
// equivalence tests compare against: one selection after another, each
// charging its broadcasts and convergecasts inline as its bisection runs,
// message by message through the per-message collectives (lane_test.go).
// It also holds the thin selection helpers the unit tests drive.

// selectKSmallest runs one covered-scan selection and charges its
// communication: the sequential composition the sweep performs per size.
// The returned sum is the plain sum of the selected x values.
func (nw *Network) selectKSmallest(t *Tree, covered []int32, x []float64, k int) (key, float64, bool) {
	r := nw.scanSelect(covered, x, k)
	nw.replaySelection(t, r)
	return r.threshold, r.sum, r.ok
}

// selectKSmallestIndexed runs one degree-indexed selection of p's size-k
// candidate set over support (ascending, with off prepared for it) and
// charges its communication, returning the threshold and canonical sum.
func (nw *Network) selectKSmallestIndexed(t *Tree, p rw.Dist, support []int32, off *rw.OffSupportStream, muPrime float64, size int) (key, float64, bool) {
	nw.support = support
	sc := &selScratch{off: *off}
	r := nw.selectIndexed(sc, nw.degreeIndex(), p, size, muPrime)
	nw.replaySelection(t, r)
	return r.threshold, r.sum, r.ok
}

// largestMixingSetReference is the sequential sweep: largestMixingSet with
// every size selected, and charged, before the next one starts.
func (nw *Network) largestMixingSetReference(tree *Tree, covered []int32, p rw.Dist, x []float64, ladder []int, mixThreshold float64) (rw.MixingSet, error) {
	g := nw.Graph()
	n := g.NumVertices()
	var (
		bestThreshold key
		bestSize      int
		found         bool
		bestX         = math.NaN()
	)
	indexed := n > 0 && len(covered) == n
	var support []int32
	var off rw.OffSupportStream
	if indexed {
		for v := 0; v < n; v++ {
			if p[v] != 0 {
				support = append(support, int32(v))
			}
		}
		off.Reset(nw.degreeIndex(), support)
	}
	for _, size := range ladder {
		if err := nw.interrupted(); err != nil {
			return rw.MixingSet{}, err
		}
		muPrime := rw.MuPrime(g, size)
		var (
			threshold key
			sum       float64
			ok        bool
		)
		if indexed && muPrime > 0 {
			off.SetMu(muPrime)
			xs := make([]float64, 0, len(support))
			for _, v := range support {
				xs = append(xs, rw.XValueAt(g, p, int(v), size, muPrime))
			}
			threshold, sum, ok = nw.selectKSmallestIndexedReference(tree, support, xs, &off, muPrime, size)
		} else {
			for u := 0; u < n; u++ {
				x[u] = rw.XValueAt(g, p, u, size, muPrime)
			}
			threshold, _, ok = nw.selectKSmallestReference(tree, covered, x, size)
			if ok {
				sum = canonicalCoveredSum(g, p, covered, x, threshold, muPrime, size)
			}
		}
		if ok && sum < mixThreshold {
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

// selectKSmallestReference is the sequential covered-scan binary search,
// charging one broadcast + convergecast per iteration as it goes.
func (nw *Network) selectKSmallestReference(t *Tree, covered []int32, x []float64, k int) (key, float64, bool) {
	if k <= 0 || k > len(covered) {
		return key{}, 0, false
	}
	nw.convergecastReference(t)
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
		nw.convergecastReference(t)
		agg := aggregate(covered, x, hi)
		return hi, agg.sumLe, true
	}
	for iter := 0; iter < 256; iter++ {
		if nw.interrupted() != nil {
			return key{}, 0, false
		}
		if lo == hi {
			nw.broadcastReference(t)
			nw.convergecastReference(t)
			agg := aggregate(covered, x, lo)
			if agg.countLe != k {
				return key{}, 0, false
			}
			return lo, agg.sumLe, true
		}
		mid := midKey(lo, hi)
		nw.broadcastReference(t)
		nw.convergecastReference(t)
		agg := aggregate(covered, x, mid)
		switch {
		case agg.countLe == k:
			return agg.maxLe, agg.sumLe, true
		case agg.countLe > k:
			hi = agg.maxLe
		default:
			lo = agg.minGt
		}
	}
	return key{}, 0, false
}

// selectKSmallestIndexedReference is the sequential degree-indexed binary
// search over the support's precomputed x values xsup: separate passes for
// the key copy, min/max, each iteration's aggregate and its shrink, with the
// communication charged inline.
func (nw *Network) selectKSmallestIndexedReference(t *Tree, support []int32, xsup []float64, off *rw.OffSupportStream, muPrime float64, size int) (key, float64, bool) {
	n := nw.g.NumVertices()
	k := size
	if k <= 0 || k > n {
		return key{}, 0, false
	}
	nOff := off.Len()
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
