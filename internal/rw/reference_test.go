package rw

import (
	"fmt"
	"math"
	"sort"

	"cdrw/internal/graph"
)

// The O(n)-per-size reference sweep of Algorithm 1 (lines 12–17): every
// candidate size computes all n x values, selects the |S| smallest under
// (x, id) order by quickselect and folds them through MixingSum. The
// equivalence suites hold the Sweeper, the one production sweep, to it bit
// for bit.

// LargestMixingSet finds the largest set S (|S| on the geometric ladder
// starting at minSize) on which the distribution p satisfies the mixing
// condition Σ_{|S| smallest x_u} x_u < 1/2e. The whole ladder is evaluated
// and the largest passing size wins: small candidate sizes legitimately fail
// while a size matching the walk's current spread passes, so stopping at the
// first failure would miss the set (§III "the algorithm iterates the
// checking process ... by increasing the size").
func LargestMixingSet(g *graph.Graph, p Dist, minSize int) (MixingSet, error) {
	return LargestMixingSetOpt(g, p, minSize, MixOptions{})
}

// LargestMixingSetOpt is LargestMixingSet with the Algorithm 1 constants
// overridable. This is the dense reference sweep: every ladder size costs
// O(n). Production code sweeps with Sweeper.LargestMixingSet, which must
// return the same set, sum and SizesChecked bit for bit.
func LargestMixingSetOpt(g *graph.Graph, p Dist, minSize int, opt MixOptions) (MixingSet, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	if len(p) != n {
		return MixingSet{}, fmt.Errorf("rw: distribution has %d entries for %d vertices", len(p), n)
	}
	ladder := SizeLadderWithGrowth(minSize, n, opt.Growth)
	x := make([]float64, n)
	best := MixingSet{}
	for _, size := range ladder {
		if err := opt.interrupted(); err != nil {
			return MixingSet{}, err
		}
		best.SizesChecked++
		sel, sum := denseSweepSize(g, p, size, x)
		if sum < opt.Threshold {
			best.Vertices = sel
			best.Sum = sum
		}
	}
	return best, nil
}

// denseSweepSize evaluates one candidate size of the ladder against the full
// vertex set: x buffer of length n, returns the selected ids (ascending) and
// the canonical mixing sum. This is the reference evaluation the Sweeper
// is equivalence-tested against.
func denseSweepSize(g *graph.Graph, p Dist, size int, x []float64) ([]int, float64) {
	muPrime := MuPrime(g, size)
	XValues(g, p, size, x)
	sel, _ := SmallestK(x, size)
	onSum := 0.0
	var offDeg int64
	offCount := 0
	for _, u := range sel {
		if p[u] != 0 {
			onSum += x[u]
		} else {
			offDeg += int64(g.Degree(u))
			offCount++
		}
	}
	return sel, MixingSum(onSum, offDeg, offCount, muPrime, size)
}

// XValues computes x_u for every vertex. out must have length n and is
// returned for convenience.
func XValues(g *graph.Graph, p Dist, size int, out []float64) []float64 {
	n := g.NumVertices()
	muPrime := MuPrime(g, size)
	if muPrime == 0 {
		// Hoist the edgeless-graph branch of XValueAt out of the loop.
		target := 1 / float64(size)
		for u := 0; u < n; u++ {
			out[u] = math.Abs(p[u] - target)
		}
		return out
	}
	for u := 0; u < n; u++ {
		out[u] = math.Abs(p[u] - float64(g.Degree(u))/muPrime)
	}
	return out
}

// SmallestK returns the k vertices with the smallest x values and the sum of
// those values. Ties are broken by vertex id (smaller id first), which makes
// the selection deterministic — the distributed implementation breaks ties
// the same way, standing in for the paper's "add a very small random number
// to each x_u" trick. The returned ids are sorted ascending, and the sum is
// accumulated in that ascending-id order, so it is a pure function of the
// selected set rather than of quickselect's internal permutation (floating-
// point addition does not commute across orders).
func SmallestK(x []float64, k int) ([]int, float64) {
	n := len(x)
	if k <= 0 {
		return nil, 0
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	quickselectK(x, idx, k)
	out := make([]int, k)
	copy(out, idx[:k])
	sort.Ints(out)
	sum := 0.0
	for _, u := range out {
		sum += x[u]
	}
	return out, sum
}

// xLess orders indices by (x value, id) lexicographically.
func xLess(x []float64, a, b int) bool {
	if x[a] != x[b] {
		return x[a] < x[b]
	}
	return a < b
}

// quickselectK partitions idx so its first k entries are the k smallest
// indices under (x, id) order, in O(n) expected time. The candidate-size
// sweep calls it O(log n) times per walk step, so avoiding a full sort per
// size matters at the paper's largest experiment scale (n = 2¹³).
func quickselectK(x []float64, idx []int, k int) {
	lo, hi := 0, len(idx) // the k-th position (k-1) lies within idx[lo:hi]
	for hi-lo > 16 {
		// Median-of-three pivot of (first, middle, last).
		a, b, c := idx[lo], idx[lo+(hi-lo)/2], idx[hi-1]
		if xLess(x, b, a) {
			a, b = b, a
		}
		if xLess(x, c, b) {
			b = c
			if xLess(x, b, a) {
				b = a
			}
		}
		pivot := b
		// Hoare partition: afterwards every element in idx[lo:j+1] is ≤
		// every element in idx[i:hi], with j < i.
		i, j := lo, hi-1
		for {
			for xLess(x, idx[i], pivot) {
				i++
			}
			for xLess(x, pivot, idx[j]) {
				j--
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
		if k-1 <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	// Insertion sort the small remainder so idx[:k] ends exactly with the k
	// smallest entries.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xLess(x, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
