package rw

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// bruteOffKeys materialises the off-support (x, id) keys the stream models,
// sorted by the sweep order.
func bruteOffKeys(g interface {
	NumVertices() int
	Degree(int) int
}, support map[int32]bool, mu float64) (xs []float64, ids []int32) {
	n := g.NumVertices()
	type kk struct {
		x  float64
		id int32
	}
	var keys []kk
	for v := 0; v < n; v++ {
		if support[int32(v)] {
			continue
		}
		keys = append(keys, kk{x: math.Abs(0 - float64(g.Degree(v))/mu), id: int32(v)})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].x != keys[j].x {
			return keys[i].x < keys[j].x
		}
		return keys[i].id < keys[j].id
	})
	for _, k := range keys {
		xs = append(xs, k.x)
		ids = append(ids, k.id)
	}
	return xs, ids
}

// TestOffSupportStreamMatchesBruteForce: every query of the stream agrees
// with a full materialisation of the off-support keys, across excluded sets
// and µ' values, including equal-degree runs and query keys sitting exactly
// on stream values. Each stream is prepared both ways: from its excluded
// set (Reset) and from its member list (ResetMembers), reusing one stream
// for both. The excluded sets range over every size up to the whole vertex
// set: random sizes, then the near-complete sets a depth-limited CONGEST
// tree leaves (every vertex but a few covered ones without mass). An empty
// stream answers 0 even at µ' = 0, the edgeless-graph regime.
func TestOffSupportStreamMatchesBruteForce(t *testing.T) {
	const n = 160
	g, err := gen.Gnp(n, 2*gen.Log2(n)/n, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewDegreeIndex(g)
	r := rng.New(7)
	var supSizes []int
	for trial := 0; trial < 20; trial++ {
		supSizes = append(supSizes, r.Intn(n+1))
	}
	for left := 12; left >= 0; left-- {
		supSizes = append(supSizes, n-left)
	}
	var stream OffSupportStream
	for trial, supSize := range supSizes {
		supSet := map[int32]bool{}
		var support []int32
		for len(support) < supSize {
			v := int32(r.Intn(n))
			if !supSet[v] {
				supSet[v] = true
				support = append(support, v)
			}
		}
		sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
		var members []int32
		for v := int32(0); v < n; v++ {
			if !supSet[v] {
				members = append(members, v)
			}
		}
		for _, byMembers := range []bool{false, true} {
			if byMembers {
				stream.ResetMembers(idx, members)
			} else {
				stream.Reset(idx, support)
			}
			checkOffSupportStream(t, fmt.Sprintf("trial %d members %v", trial, byMembers), g, &stream, supSet)
		}
	}
}

// checkOffSupportStream compares every query of a prepared stream with the
// brute-force off-support keys of supSet, at µ' = 0 when the stream is
// empty and at four sizes' µ'.
func checkOffSupportStream(t *testing.T, at string, g *graph.Graph, stream *OffSupportStream, supSet map[int32]bool) {
	t.Helper()
	n := g.NumVertices()
	if len(supSet) == n {
		stream.SetMu(0)
		if stream.Len() != 0 || stream.CountLE(0, 0) != 0 || stream.CountLE(math.Inf(1), 1<<30) != 0 || stream.PrefixDeg(0) != 0 {
			t.Fatalf("%s: whole vertex set excluded at µ' = 0: Len=%d CountLE=%d", at, stream.Len(), stream.CountLE(0, 0))
		}
	}
	for _, size := range []int{3, 17, 80, n} {
		mu := MuPrime(g, size)
		stream.SetMu(mu)
		xs, ids := bruteOffKeys(g, supSet, mu)
		if stream.Len() != len(xs) {
			t.Fatalf("%s size %d: Len=%d, brute %d", at, size, stream.Len(), len(xs))
		}
		for j := 0; j < len(xs); j++ {
			x, id := stream.KeyAt(j)
			if x != xs[j] || id != ids[j] {
				t.Fatalf("%s size %d: KeyAt(%d) = (%v,%d), brute (%v,%d)",
					at, size, j, x, id, xs[j], ids[j])
			}
		}
		// Exact prefix degree sums.
		var want int64
		for j := 0; j <= len(xs); j++ {
			if got := stream.PrefixDeg(j); got != want {
				t.Fatalf("%s size %d: PrefixDeg(%d) = %d, want %d", at, size, j, got, want)
			}
			if j < len(ids) {
				want += int64(g.Degree(int(ids[j])))
			}
		}
		// CountLE at on-stream keys, between keys, below min and above max.
		probe := func(x float64, id int32) {
			want := 0
			for j := range xs {
				if xs[j] < x || (xs[j] == x && ids[j] <= id) {
					want++
				}
			}
			if got := stream.CountLE(x, id); got != want {
				t.Fatalf("%s size %d: CountLE(%v,%d) = %d, want %d", at, size, x, id, got, want)
			}
		}
		probe(-1, 0)
		probe(math.Inf(1), 1<<30)
		for j := 0; j < len(xs); j += 7 {
			probe(xs[j], ids[j])
			probe(xs[j], ids[j]-1)
			probe(xs[j], 1<<30)
			probe(xs[j]*1.0000001, -1)
		}
	}
}
