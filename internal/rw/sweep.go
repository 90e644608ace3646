package rw

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cdrw/internal/graph"
)

// This file implements the sparse-aware mixing-set sweep. The dense sweep
// (LargestMixingSetOpt) touches all n vertices for every candidate size of
// the ladder, which PR 1 turned into the dominant cost of detection: walk
// stepping is O(support) while the walk is a small ball around its source,
// but the per-step sweep stayed O(n · ladder).
//
// The sparse sweep exploits the closed form of the statistic off the walk's
// support: p(u) = 0 there, so x_u = |0 − d(u)/µ'(S)| = d(u)/µ'(S) — a value
// that depends only on the degree. Off-support vertices therefore form an
// implicit stream that is already sorted under the sweep's (x, id) order by
// (degree, id), for every ladder size at once, because dividing by the
// positive constant µ' preserves the degree order. A DegreeIndex built once
// per engine supplies that stream, its exact integer prefix degree sums, and
// each vertex's position in it (OffSupportStream answers the queries); per
// candidate size the sweep then only has to merge the O(support) explicit
// x-values against the implicit stream:
//
//   - the explicit values come from a per-size degree table t[d] = d/µ',
//     one division per distinct degree instead of one per support vertex;
//   - the number of explicit values inside the |S| smallest is found by
//     bracket-and-count selection: a strided sample of the explicit values
//     brackets the target rank, one branch-free pass counts the values below
//     the bracket and copies the ones inside it, and a quickselect over that
//     band — counting implicit entries below each pivot by binary search in
//     the index — finds the exact cut. Small supports, and brackets the
//     sample misjudges, take that quickselect over the whole support. Either
//     way the cost is O(support) plus O(log support · log n) index probes,
//     never touching the off-support vertices themselves;
//   - the off-support tail of the canonical sum (see mixingSum) is an
//     integer prefix-degree-sum lookup, O(log n · log support).
//
// One walk step's whole ladder costs O(support · ladder + support · log n)
// instead of O(n · ladder), and the result — set, sum, and the threshold
// decision — is bit-identical to the dense sweep by construction: explicit
// values use the exact XValueAt division, implicit comparisons use the same
// d/µ' division, and both sweeps fold their selection into the same
// canonical mixingSum.
//
// Exactness caveat, for the record: the implicit stream's (degree, id) order
// stands in for (d·(1/µ'), id) order, which is only guaranteed while
// distinct degrees map to distinct floats. Two degrees d1 < d2 < 2⁵² differ
// relatively by at least 1/d2 ≥ 2⁻⁵², more than one ulp, so the products
// cannot collide for any graph this package can represent.

// DegreeIndex is an immutable per-graph index: all vertices sorted by
// (degree, id) with exact prefix degree sums and the inverse permutation.
// Engines build it once (core's parallel engine shares one across its walks)
// and every sparse sweep over the graph reuses it.
type DegreeIndex struct {
	order  []int32 // vertices by (degree asc, id asc)
	degs   []int32 // degs[i] = degree(order[i])
	prefix []int64 // prefix[i] = Σ_{j<i} degs[j], exact
	pos    []int32 // pos[v] = position of v in order
}

// NewDegreeIndex builds the index in O(n + maxDegree) by counting sort
// (iterating vertices in id order keeps each degree bucket id-sorted).
func NewDegreeIndex(g *graph.Graph) *DegreeIndex {
	n := g.NumVertices()
	idx := &DegreeIndex{
		order:  make([]int32, n),
		degs:   make([]int32, n),
		prefix: make([]int64, n+1),
		pos:    make([]int32, n),
	}
	maxd := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	start := make([]int32, maxd+1)
	for v := 0; v < n; v++ {
		start[g.Degree(v)]++
	}
	total := int32(0)
	for d := 0; d <= maxd; d++ {
		c := start[d]
		start[d] = total
		total += c
	}
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		idx.order[start[d]] = int32(v)
		start[d]++
	}
	for i, v := range idx.order {
		d := g.Degree(int(v))
		idx.degs[i] = int32(d)
		idx.prefix[i+1] = idx.prefix[i] + int64(d)
		idx.pos[v] = int32(i)
	}
	return idx
}

// MaxDegree returns the largest vertex degree, 0 on an empty graph.
func (idx *DegreeIndex) MaxDegree() int {
	if len(idx.degs) == 0 {
		return 0
	}
	return int(idx.degs[len(idx.degs)-1])
}

// DegreeTable returns the table t of candidate size size, with µ' =
// muPrime = MuPrime(g, size), reusing buf's storage: t[d] is the x value of
// a degree-d vertex without mass, float64(d)/µ' for every degree d up to
// MaxDegree, or XValueAt's uniform target 1/size on an edgeless graph
// (µ' = 0, where every degree is 0). So |p(u) − t[d(u)]| is bit for bit
// XValueAt(g, p, u, size, muPrime), with one division per distinct degree
// instead of one per vertex. It pays when more than MaxDegree() x values
// are computed (always on an edgeless graph); callers computing fewer
// divide per vertex instead.
func (idx *DegreeIndex) DegreeTable(size int, muPrime float64, buf []float64) []float64 {
	if muPrime == 0 {
		return append(buf[:0], 1/float64(size))
	}
	t := slices.Grow(buf[:0], idx.MaxDegree()+1)[:idx.MaxDegree()+1]
	for d := range t {
		t[d] = float64(d) / muPrime
	}
	return t
}

// sweepEntry is one explicit (on-support) key of the sweep: the x statistic
// and the vertex id, the tie-break dimension.
type sweepEntry struct {
	x float64
	v int32
}

func entryLess(a, b sweepEntry) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return a.v < b.v
}

// Bracket-and-count selection (selectBracket). The sample holds the
// explicit values at the midpoints of bracketSample equal strata of the
// support. Supports under bracketMinSupport keep the whole-support
// quickselect: there the sample sort and the extra index probes cost more
// than the quickselect's partition passes (the two measure even at about
// 256 support vertices on n = 2048 and n = 10⁴ PPM walks).
const (
	bracketSample     = 32
	bracketMinSupport = 320
)

// Sweeper runs largest-mixing-set searches over one graph, with a sparse
// fast path when the distribution's support is known. A Sweeper is not safe
// for concurrent use, but Sweepers of different walks may share one
// DegreeIndex (it is read-only after construction) — that is how
// DetectParallel sweeps all walks from goroutines.
type Sweeper struct {
	g   *graph.Graph
	idx *DegreeIndex
	off OffSupportStream // the current support's off-support stream

	// Current-size context (set by evalSize for implicitBefore).
	muPrime float64
	target  float64 // off-support value 1/size on an edgeless graph

	xsup   []float64              // explicit x per support slot
	ents   []sweepEntry           // selection scratch, then the selected keys
	xdeg   []float64              // per-size degree table (DegreeTable)
	sample [bracketSample]float64 // selectBracket's strided sample
	out    []int                  // result buffer, reused across sweeps

	// Dense-path frontier compaction scratch, reused across sweeps so the
	// dense regime serves allocation-free too: supBuf receives the exact
	// support extracted from p, supBits marks it for the degree-order scan
	// (n/64 bytes — L2-resident at n = 10⁶ — and all-zero between sweeps).
	supBuf  []int32
	supBits []uint64

	// Ladder cache: the candidate sizes depend only on (minSize, growth, n),
	// which are fixed across the steps of a detection loop; recomputing the
	// ladder per sweep was the last steady-state allocation on the sparse
	// serving path.
	ladder       []int
	ladderMin    int
	ladderGrowth float64
	ladderOK     bool
}

// NewSweeper returns a sweeper over g with its own DegreeIndex.
func NewSweeper(g *graph.Graph) *Sweeper {
	return NewSweeperWithIndex(g, NewDegreeIndex(g))
}

// NewSweeperWithIndex returns a sweeper over g reusing a prebuilt index.
func NewSweeperWithIndex(g *graph.Graph, idx *DegreeIndex) *Sweeper {
	return &Sweeper{g: g, idx: idx}
}

// LargestMixingSet finds the largest mixing set of p exactly like
// LargestMixingSetOpt, but in O(support) per ladder size when support — the
// vertices with p(u) ≠ 0, strictly ascending — is given. support == nil
// selects the dense path (reusing the sweeper's buffers, but otherwise
// identical to LargestMixingSetOpt). The two paths are bit-identical: same
// sets, same sums, same threshold decisions.
//
// On both paths the returned Vertices slice aliases sweeper storage: it is
// valid until the sweeper's next sweep and must be copied to be retained
// (the detection loops copy it into their trackers). This is what keeps a
// long-lived Detector's repeat runs allocation-free, in the dense regime as
// well as the sparse one.
func (s *Sweeper) LargestMixingSet(p Dist, support []int32, minSize int, opt MixOptions) (MixingSet, error) {
	opt = opt.withDefaults()
	n := s.g.NumVertices()
	if len(p) != n {
		return MixingSet{}, fmt.Errorf("rw: distribution has %d entries for %d vertices", len(p), n)
	}
	if support == nil {
		return s.denseSweep(p, minSize, opt)
	}
	for i, v := range support {
		if int(v) >= n || v < 0 {
			return MixingSet{}, fmt.Errorf("rw: support vertex %d out of range [0,%d): %w", v, n, graph.ErrVertexOutOfRange)
		}
		if i > 0 && v <= support[i-1] {
			return MixingSet{}, fmt.Errorf("rw: support not strictly ascending at index %d", i)
		}
	}
	s.off.Reset(s.idx, support)
	s.ensureSupportBuffers(len(support))
	return s.sweepLadder(p, support, minSize, opt)
}

// sweepLadder evaluates the whole candidate-size ladder over a prepared
// support and materialises the largest passing size once at the end.
func (s *Sweeper) sweepLadder(p Dist, support []int32, minSize int, opt MixOptions) (MixingSet, error) {
	ladder := s.sizeLadder(minSize, opt.Growth)
	best := MixingSet{}
	bestSize := 0
	for _, size := range ladder {
		if err := opt.interrupted(); err != nil {
			return MixingSet{}, err
		}
		best.SizesChecked++
		sum, _ := s.evalSize(p, support, size)
		if sum < opt.Threshold {
			bestSize = size
			best.Sum = sum
		}
	}
	if bestSize > 0 {
		best.Vertices = s.materialize(p, support, bestSize)
	}
	return best, nil
}

// sizeLadder returns the cached candidate-size ladder, rebuilding it only
// when minSize or growth changed since the previous sweep.
func (s *Sweeper) sizeLadder(minSize int, growth float64) []int {
	if !s.ladderOK || s.ladderMin != minSize || s.ladderGrowth != growth {
		s.ladder = SizeLadderWithGrowth(minSize, s.g.NumVertices(), growth)
		s.ladderMin, s.ladderGrowth = minSize, growth
		s.ladderOK = true
	}
	return s.ladder
}

// denseSweep is LargestMixingSetOpt over the sweeper's reusable buffers.
// Instead of replaying the reference's O(n)-per-ladder-size full scan, it
// compacts the frontier once — one sequential pass over p extracts the exact
// support (skipping a zero mass changes nothing: off-support x-values have
// the closed degree form either way) and marks it in the L2-resident supBits
// bitmap, from which the off-support stream takes the support's degree-order
// positions in one scan — and then runs the explicit/implicit merge of the
// sparse machinery over that support. Every later ladder size touches
// O(support) explicit values plus index probes, never the n-sized arrays,
// which is what turns the early-walk dense sweep from a memory-bound
// O(n·ladder) scan into a cache-resident pass. Outputs are bit-identical to
// the reference: the extracted support is exactly the support the sparse
// sweep is equivalence-tested with, explicit values use the exact XValueAt
// division, and both paths fold into the canonical mixingSum. All buffers
// are retained, so steady-state dense sweeps allocate nothing. Like the
// sparse path, the returned Vertices alias sweeper storage and stay valid
// only until the sweeper's next sweep.
func (s *Sweeper) denseSweep(p Dist, minSize int, opt MixOptions) (MixingSet, error) {
	n := s.g.NumVertices()
	if cap(s.supBuf) < n {
		s.supBuf = make([]int32, 0, n)
	}
	if len(s.supBits) != (n+63)/64 {
		s.supBits = make([]uint64, (n+63)/64)
	}
	sup := s.supBuf[:0]
	bits := s.supBits
	for v, pv := range p {
		if pv != 0 {
			sup = append(sup, int32(v))
			bits[uint(v)>>6] |= 1 << (uint(v) & 63)
		}
	}
	s.supBuf = sup
	s.off.resetMarked(s.idx, bits, sup)
	s.ensureSupportBuffers(len(sup))
	return s.sweepLadder(p, sup, minSize, opt)
}

// ensureSupportBuffers sizes the per-size scratch for ns support vertices.
func (s *Sweeper) ensureSupportBuffers(ns int) {
	if cap(s.xsup) < ns {
		s.xsup = make([]float64, 0, 2*ns)
		s.ents = make([]sweepEntry, 0, 2*ns)
	}
	s.xsup = s.xsup[:ns]
	s.ents = s.ents[:ns]
}

// implicitBefore counts the off-support keys (x', id') that precede (x, v).
// Off-support values are degs/µ' in index order — the exact XValueAt
// division — or the constant 1/size on an edgeless graph, where the index
// order degenerates to plain ascending id because every degree is zero.
func (s *Sweeper) implicitBefore(x float64, v int32) int {
	off := &s.off
	if off.Len() == 0 {
		return 0
	}
	if s.muPrime == 0 {
		switch c := s.target; {
		case c < x:
			return off.Len()
		case c > x:
			return 0
		}
		// Every stream value is 0/1 (evalSize sets µ' = 1 there), so the
		// stream counts the off-support ids below v.
		return off.CountLE(0, v-1)
	}
	return off.CountLE(x, v-1)
}

// selectExplicit partitions ents so that ents[:eSel] holds exactly the
// explicit entries that belong to the k smallest keys of the explicit ∪
// implicit union, returning eSel; ents[eSel], if any, is the smallest entry
// left out. It is a quickselect over the explicit entries only: each
// pivot's union rank adds the implicit count from the index, so
// off-support vertices are never enumerated. The returned prefix is a set,
// not sorted.
func (s *Sweeper) selectExplicit(ents []sweepEntry, k int) int {
	lo, hi := 0, len(ents)
	for hi-lo > 12 {
		// Median-of-3 pivot, parked at hi-1 for a Lomuto partition.
		mid := lo + (hi-lo)/2
		if entryLess(ents[mid], ents[lo]) {
			ents[mid], ents[lo] = ents[lo], ents[mid]
		}
		if entryLess(ents[hi-1], ents[mid]) {
			ents[hi-1], ents[mid] = ents[mid], ents[hi-1]
			if entryLess(ents[mid], ents[lo]) {
				ents[mid], ents[lo] = ents[lo], ents[mid]
			}
		}
		ents[mid], ents[hi-1] = ents[hi-1], ents[mid]
		// Branch-free Lomuto: every entry swaps with ents[m], and m advances
		// past it only if it precedes the pivot.
		piv := ents[hi-1]
		m := lo
		part := ents[lo : hi-1]
		for i, e := range part {
			part[i] = ents[m]
			ents[m] = e
			m += b2i(e.x < piv.x) | b2i(e.x == piv.x)&b2i(e.v < piv.v)
		}
		ents[m], ents[hi-1] = ents[hi-1], ents[m]
		// ents[:lo] are known-selected and smaller than ents[lo:hi], so the
		// pivot's union rank is its absolute explicit index m plus the
		// implicit entries below it. ents[hi] stays the smallest of
		// ents[hi:].
		if m+s.implicitBefore(piv.x, piv.v) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// Insertion-sort the remaining bracket; the entries ranking inside the k
	// smallest form a prefix of it.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && entryLess(ents[j], ents[j-1]); j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
	return lo + sort.Search(hi-lo, func(i int) bool {
		e := ents[lo+i]
		return lo+i+s.implicitBefore(e.x, e.v) >= k
	})
}

// selectBracket is bracket-and-count selection over the whole support's x
// values in xsup: it returns the cut, a key that exactly the explicit keys
// among the k smallest union keys precede. ok is false when the bracket
// misses; the caller then falls back to selectExplicit over the whole
// support.
//
// The sorted sample value j stands for explicit quantile q = (j+½)/m, so it
// estimates union rank q·ns plus the exact implicit count below it. The
// bracket [ax, bx] reaches g sample gaps past the first sample whose
// estimate reaches k on either side, where g is one gap plus two standard
// deviations of a sample quantile's rank, (m·q·(1−q))^½ gaps. One
// branch-free pass counts the explicit values below ax and copies those in
// [ax, bx] — the band — into ents. The bracket holds when everything below
// ax is selected (below + implicit(< ax) ≤ k) and nothing above bx is
// (below + band + implicit(≤ bx) ≥ k); quickselect inside the band then
// places the exact cut.
func (s *Sweeper) selectBracket(support []int32, k int) (cut sweepEntry, ok bool) {
	xs := s.xsup
	ns := len(xs)
	smp := s.sample[:]
	m := len(smp)
	for j := range smp {
		smp[j] = xs[(2*j+1)*ns/(2*m)]
	}
	slices.Sort(smp)
	jc := sort.Search(m, func(j int) bool {
		return (2*j+1)*ns/(2*m)+s.implicitBefore(smp[j], 0) >= k
	})
	q := min((float64(jc)+0.5)/float64(m), 1)
	g := 1 + int(2*math.Sqrt(float64(m)*q*(1-q)))
	ax, bx := math.Inf(-1), math.Inf(1)
	if j := jc - 1 - g; j >= 0 {
		ax = smp[j]
	}
	if j := jc + g; j < m {
		bx = smp[j]
	}
	ents := s.ents[:ns]
	below, w := 0, 0
	for i, x := range xs {
		ents[w] = sweepEntry{x: x, v: support[i]}
		lt := b2i(x < ax)
		below += lt
		w += b2i(x <= bx) - lt
	}
	if below+s.implicitBefore(ax, 0) > k || below+w+s.implicitBefore(bx, math.MaxInt32) < k {
		return sweepEntry{}, false
	}
	band := ents[:w]
	// With the whole band selected, the cut sits just above bx: exactly the
	// keys with x ≤ bx precede (bx, MaxInt32).
	if e := s.selectExplicit(band, k-below); e < w {
		return band[e], true
	}
	return sweepEntry{x: bx, v: math.MaxInt32}, true
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// which keeps the counting passes free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// evalSize evaluates one candidate size: explicit x-values, the explicit/
// implicit split of the |S| smallest, and the canonical sum. Returns the sum
// and the explicit count eSel; ents[:eSel] holds the selected explicit keys
// in ascending id order.
func (s *Sweeper) evalSize(p Dist, support []int32, size int) (float64, int) {
	g := s.g
	mu := MuPrime(g, size)
	s.muPrime = mu
	if mu == 0 {
		// Edgeless graph: XValueAt's uniform target, and a stream re-targeted
		// to µ' = 1, whose values are all 0/1 (see implicitBefore).
		s.target = 1 / float64(size)
		s.off.SetMu(1)
	} else {
		s.off.SetMu(mu)
	}
	xs := s.xsup
	if s.idx.MaxDegree() < len(support) {
		s.xdeg = s.idx.DegreeTable(size, mu, s.xdeg)
		t := s.xdeg
		for i, v := range support {
			xs[i] = math.Abs(p[v] - t[g.Degree(int(v))])
		}
	} else {
		for i, v := range support {
			xs[i] = math.Abs(p[v] - float64(g.Degree(int(v)))/mu)
		}
	}

	cut, ok := sweepEntry{}, false
	if len(support) >= bracketMinSupport {
		cut, ok = s.selectBracket(support, size)
	}
	if !ok {
		ents := s.ents
		for i, x := range xs {
			ents[i] = sweepEntry{x: x, v: support[i]}
		}
		cut = sweepEntry{x: math.Inf(1), v: math.MaxInt32}
		if e := s.selectExplicit(ents, size); e < len(ents) {
			cut = ents[e]
		}
	}

	// Gather the keys that precede the cut in slot (= ascending id) order and
	// sum them in that order: the canonical on-support accumulation.
	eSel := gatherBefore(s.ents, xs, support, cut)
	onSum := 0.0
	for _, en := range s.ents[:eSel] {
		onSum += en.x
	}
	j := size - eSel
	return mixingSum(onSum, s.off.PrefixDeg(j), j, mu, size), eSel
}

// gatherBefore copies the keys (xs[i], support[i]) that precede cut into
// dst in slot order and returns their count. Slots below h hold ids under
// cut.v, so there a key precedes the cut iff x ≤ cut.x; from h on, iff
// x < cut.x: one branch-free comparison per key.
func gatherBefore(dst []sweepEntry, xs []float64, support []int32, cut sweepEntry) int {
	h, _ := slices.BinarySearch(support, cut.v)
	e := 0
	for i, x := range xs[:h] {
		dst[e] = sweepEntry{x: x, v: support[i]}
		e += b2i(x <= cut.x)
	}
	tail := support[h:len(xs)]
	for i, x := range xs[h:] {
		dst[e] = sweepEntry{x: x, v: tail[i]}
		e += b2i(x < cut.x)
	}
	return e
}

// materialize re-runs the selection for the accepted size and emits its
// vertex set, ascending, into the sweeper's reused result buffer. Doing this
// once for the winning size (instead of per passing size, as the dense sweep
// does) keeps the ladder loop free of O(size) work, and reusing the buffer
// keeps steady-state sweeps allocation-free — callers that retain the set
// across sweeps must copy it.
func (s *Sweeper) materialize(p Dist, support []int32, size int) []int {
	_, eSel := s.evalSize(p, support, size)
	out := s.out[:0]
	for _, en := range s.ents[:eSel] {
		out = append(out, int(en.v))
	}
	j := size - eSel
	wpos := s.off.wpos
	wi := 0
	for i := 0; j > 0; i++ {
		if wi < len(wpos) && int(wpos[wi]) == i {
			wi++
			continue
		}
		out = append(out, int(s.idx.order[i]))
		j--
	}
	slices.Sort(out)
	s.out = out
	return out
}
