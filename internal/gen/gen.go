// Package gen implements the random graph models the paper evaluates on:
// the Erdős–Rényi model G(n,p) and the symmetric planted partition model
// G(n,p,q) with r equal blocks (the stochastic block model benchmark of
// §I-B), plus a general stochastic block model with an arbitrary block
// connectivity matrix.
//
// All generators use geometric skip sampling: instead of flipping a coin for
// each of the Θ(n²) candidate pairs, they jump between present edges with
// geometrically distributed skips, so generation costs O(m) expected time.
// This matters because the paper's regime is sparse (p = Θ(log n / n)).
package gen

import (
	"fmt"
	"math"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// Gnp samples an Erdős–Rényi random graph on n vertices where each of the
// C(n,2) possible edges is present independently with probability p.
func Gnp(n int, p float64, r *rng.RNG) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative vertex count %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: probability p=%v out of [0,1]", p)
	}
	b := graph.NewBuilder(n)
	samplePairs(n, p, r, func(u, v int) { b.AddEdge(u, v) })
	return b.Build()
}

// samplePairs visits each unordered pair {u,v} with u<v independently with
// probability p, using geometric skips over the linearised pair index
// k = u*n + v restricted to v > u.
func samplePairs(n int, p float64, r *rng.RNG, emit func(u, v int)) {
	if p <= 0 || n < 2 {
		return
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(u, v)
			}
		}
		return
	}
	total := pairCount(n)
	k := int64(r.Geometric(p))
	for k < total {
		u, v := pairFromIndex(k, n)
		emit(u, v)
		k += 1 + int64(r.Geometric(p))
	}
}

// pairCount returns C(n,2) as int64.
func pairCount(n int) int64 {
	return int64(n) * int64(n-1) / 2
}

// pairFromIndex maps a linear index k in [0, C(n,2)) to the k-th unordered
// pair {u,v}, u < v, in lexicographic order.
func pairFromIndex(k int64, n int) (int, int) {
	// Row u starts at offset u*n - u*(u+1)/2 - 0 ... solve via the quadratic
	// formula and fix up any rounding error.
	nf := float64(n)
	kf := float64(k)
	u := int(math.Floor(nf - 0.5 - math.Sqrt((nf-0.5)*(nf-0.5)-2*kf)))
	if u < 0 {
		u = 0
	}
	for rowStart(u, n) > k {
		u--
	}
	for u+1 < n && rowStart(u+1, n) <= k {
		u++
	}
	v := u + 1 + int(k-rowStart(u, n))
	return u, v
}

// rowStart returns the linear index of pair {u, u+1}.
func rowStart(u, n int) int64 {
	return int64(u)*int64(n) - int64(u)*int64(u+1)/2
}

// crossPairs visits each pair (a,b) with a drawn from a block of size la and
// b from a disjoint block of size lb, independently with probability p. The
// caller maps local indices back to global vertex ids.
func crossPairs(la, lb int, p float64, r *rng.RNG, emit func(a, b int)) {
	if p <= 0 || la == 0 || lb == 0 {
		return
	}
	if p >= 1 {
		for a := 0; a < la; a++ {
			for b := 0; b < lb; b++ {
				emit(a, b)
			}
		}
		return
	}
	total := int64(la) * int64(lb)
	k := int64(r.Geometric(p))
	for k < total {
		emit(int(k/int64(lb)), int(k%int64(lb)))
		k += 1 + int64(r.Geometric(p))
	}
}

// Log2 is a convenience wrapper for parameterising experiments (log₂ n as a
// float). It returns 0 for n < 1.
func Log2(n int) float64 {
	if n < 1 {
		return 0
	}
	return math.Log2(float64(n))
}
