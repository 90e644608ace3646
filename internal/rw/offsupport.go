package rw

import (
	"slices"
	"sort"
)

// OffSupportStream answers order-statistic queries over the implicit
// off-support x-values of a walk distribution: every vertex u with p(u) = 0
// has x_u = |0 − d(u)/µ'| = d(u)/µ', so under the sweep's (x, id) order the
// off-support vertices form a virtual sorted stream — the graph's degree
// order minus the support — for every µ' at once (dividing by a positive
// constant preserves the degree order; see the collision note atop sweep.go).
//
// Both selections read it: the Sweeper counts the off-support keys below a
// bracket or pivot and folds in the off-support tail of the sum, and the
// CONGEST engine's distributed selection answers "how many off-support nodes
// hold a key ≤ T, and which is the largest of them" from the degree index
// alone instead of aggregating over every covered node per binary-search
// iteration.
//
// The stream keeps one sorted list of degree-order positions: those of the
// vertices it excludes (Reset, for the in-memory sweeps, whose supports are
// small next to the graph), or its own (ResetMembers, for the CONGEST
// engine, whose BFS tree may cover a few nodes of a large graph). A stream
// is prepared once per walk step (O(w·log w) for w listed vertices) and
// re-targeted per candidate size (SetMu, O(1)); queries cost O(log² n). It
// is not safe for concurrent use, but copies of a prepared stream share its
// tables read-only: each copy may take its own SetMu and answer queries
// concurrently with the others until the original is Reset. The zero value
// is ready for Reset.
type OffSupportStream struct {
	idx     *DegreeIndex
	mu      float64
	members bool    // wpos lists the stream itself (ResetMembers), not its complement
	wpos    []int32 // listed positions in idx.order, ascending
	wdeg    []int64 // prefix degree sums over wpos
}

// Reset prepares the stream for a support (the vertices with p(u) ≠ 0,
// strictly ascending), reusing the stream's buffers. The support must be a
// subset of the index's vertex set; the off-support complement is everything
// else.
func (s *OffSupportStream) Reset(idx *DegreeIndex, support []int32) {
	s.list(idx, support, false)
}

// ResetMembers prepares the stream over exactly the listed vertices, which
// must hold no mass; every other vertex, the support included, is excluded.
// It is the CONGEST engine's stream, the covered nodes without mass, and
// its cost depends on the members alone: a depth-limited tree that covers
// a few nodes of a large graph prepares its stream without touching the
// rest.
func (s *OffSupportStream) ResetMembers(idx *DegreeIndex, members []int32) {
	s.list(idx, members, true)
}

// list fills wpos with the degree-order positions of vs, sorted.
func (s *OffSupportStream) list(idx *DegreeIndex, vs []int32, members bool) {
	s.begin(idx, len(vs))
	s.members = members
	for _, v := range vs {
		s.wpos = append(s.wpos, idx.pos[v])
	}
	slices.Sort(s.wpos)
	s.prefixDegrees()
}

// resetMarked is Reset for a support that is also marked in bits (bit v set
// for every support vertex): the positions fall out of one sequential scan
// of the degree order — O(n) bitmap probes instead of an O(ns·log ns) sort,
// which wins when the support is a large fraction of the graph. It clears
// the bitmap behind the scan (whole words: only support vertices ever set
// bits in them).
func (s *OffSupportStream) resetMarked(idx *DegreeIndex, bits []uint64, support []int32) {
	s.begin(idx, len(support))
	for i, v := range idx.order {
		if bits[uint(v)>>6]&(1<<(uint(v)&63)) != 0 {
			s.wpos = append(s.wpos, int32(i))
		}
	}
	for _, v := range support {
		bits[uint(v)>>6] = 0
	}
	s.prefixDegrees()
}

// begin empties the position table, sized for ns listed vertices, and
// makes it list the excluded ones.
func (s *OffSupportStream) begin(idx *DegreeIndex, ns int) {
	s.idx, s.members = idx, false
	if cap(s.wpos) < ns {
		s.wpos = make([]int32, 0, 2*ns)
		s.wdeg = make([]int64, 0, 2*ns+1)
	}
	s.wpos = s.wpos[:0]
}

// prefixDegrees rebuilds the exact prefix degree sums over wpos.
func (s *OffSupportStream) prefixDegrees() {
	s.wdeg = append(s.wdeg[:0], 0)
	for _, p := range s.wpos {
		s.wdeg = append(s.wdeg, s.wdeg[len(s.wdeg)-1]+int64(s.idx.degs[p]))
	}
}

// SetMu sets µ' for subsequent queries. It must be positive while the
// stream is non-empty: on an edgeless graph (µ' = 0) the off-support values
// collapse to the constant 1/|S| and callers handle that regime themselves.
// An empty stream answers every query without dividing, so any µ' will do.
func (s *OffSupportStream) SetMu(mu float64) { s.mu = mu }

// Len returns the number of off-support vertices.
func (s *OffSupportStream) Len() int {
	if s.members {
		return len(s.wpos)
	}
	return len(s.idx.order) - len(s.wpos)
}

// posBelow counts listed positions strictly below index position i.
func (s *OffSupportStream) posBelow(i int) int {
	lo, hi := 0, len(s.wpos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.wpos[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CountLE returns the number of off-support keys (d(u)/µ', u) that are ≤
// (x, id) under the sweep's lexicographic order. The comparisons use the
// exact d/µ' division of XValueAt, so the count agrees bit for bit with a
// scan that materialises every off-support value. An empty stream returns
// 0 before any division.
func (s *OffSupportStream) CountLE(x float64, id int32) int {
	if s.Len() == 0 {
		return 0
	}
	idx := s.idx
	n := len(idx.order)
	mu := s.mu
	// First position whose value exceeds x; everything before is ≤ x.
	i1 := sort.Search(n, func(i int) bool { return float64(idx.degs[i])/mu > x })
	j := i1
	// Among the run of positions whose value equals x exactly (one degree
	// bucket — distinct degrees cannot collide after the division), only ids
	// ≤ id count.
	start := sort.Search(i1, func(i int) bool { return float64(idx.degs[i])/mu >= x })
	if start < i1 {
		j = start + sort.Search(i1-start, func(t int) bool { return idx.order[start+t] > id })
	}
	if s.members {
		return s.posBelow(j)
	}
	return j - s.posBelow(j)
}

// KeyAt returns the j-th smallest off-support key (0-based) as its value and
// vertex id. j must be in [0, Len()).
func (s *OffSupportStream) KeyAt(j int) (x float64, id int32) {
	idx := s.idx
	end := 0
	if s.members {
		end = int(s.wpos[j])
	} else {
		// Smallest index position i such that positions [0, i] contain j+1
		// off-support entries; that position holds the j-th entry.
		end = sort.Search(len(idx.order), func(i int) bool { return i+1-s.posBelow(i+1) >= j+1 })
	}
	return float64(idx.degs[end]) / s.mu, idx.order[end]
}

// PrefixDeg returns the exact integer degree sum of the j smallest
// off-support entries — the off-support tail of the canonical mixing sum
// (mixingSum folds it in as one division by µ').
func (s *OffSupportStream) PrefixDeg(j int) int64 {
	if s.members {
		return s.wdeg[j]
	}
	if j == 0 {
		return 0
	}
	idx := s.idx
	n := len(idx.order)
	end := sort.Search(n+1, func(i int) bool { return i-s.posBelow(i) >= j })
	t := s.posBelow(end)
	return idx.prefix[end] - s.wdeg[t]
}
