package congest

import (
	"math"
	"math/bits"

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
// nodes hold a key ≤ T, whether the canonical mixing sum of their x values
// passes the mixing test (mixes: sum < the threshold), and the
// communication the search used — casts leading convergecasts, then pairs
// broadcast + convergecast pairs. The sum itself is computed only when the
// search's bounds on it do not settle the test (summed); the decision is
// the same either way. replaySelection charges the communication; ok=false
// means the search failed (k out of range) or was abandoned because the run
// stopped.
type sizeResult struct {
	threshold key
	sum       float64
	summed    bool
	mixes     bool
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

// supportSlot is one entry of a walk step's support table: a covered node
// that holds mass, with its mass and degree. evalLadder writes the table
// once per walk step (prepareStep), in ascending id, and every ladder size
// and worker reads it.
type supportSlot struct {
	p   float64
	deg int32
	id  int32
}

// selKey is one explicit key of the bisection's working set. While the
// search bracket spans distinct x values, b holds the x value's float bits:
// every x is a finite, non-negative math.Abs, so unsigned bit order is value
// order. Once the bracket has collapsed to one x value, b holds the id.
type selKey struct {
	b  uint64
	id int32
}

// key returns e as an (x, id) key; x is the bracket's one x value when b
// holds ids.
func (e selKey) key(byID bool, x float64) key {
	if byID {
		return key{x: x, id: e.id}
	}
	return key{x: math.Float64frombits(e.b), id: e.id}
}

// selScratch is one ladder worker's selection state: its own copy of the
// walk step's off-support stream (re-targeted per size by SetMu), the size's
// degree table, and the bisection's two key buffers — the working set and
// the spare that each partition writes the keys above mid into. All of it is
// O(support) and retained across sizes and walk steps.
type selScratch struct {
	off       rw.OffSupportStream
	t         []float64
	ws, spare []selKey
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

// xBits is rw.XValueAt of support slot s as float bits, with the degree
// term read from the size's degree table t, or divided per node when t is
// nil (then the maximum degree is at least 1, so µ' > 0); both agree with
// XValueAt bit for bit.
func xBits(s supportSlot, t []float64, muPrime float64) uint64 {
	if t != nil {
		return math.Float64bits(math.Abs(s.p - t[s.deg]))
	}
	return math.Float64bits(math.Abs(s.p - float64(s.deg)/muPrime))
}

// loadKeys writes every support slot's key into ws, in ascending id, and
// returns the smallest and the largest key. On equal x the earlier slot
// wins the minimum and the later one the maximum, which is (x, id) order.
// sup must not be empty.
func loadKeys(ws []selKey, sup []supportSlot, t []float64, muPrime float64) (lo, hi selKey) {
	lo.b = math.MaxUint64
	ws = ws[:len(sup)]
	for i := range sup {
		e := selKey{b: xBits(sup[i], t, muPrime), id: sup[i].id}
		ws[i] = e
		if e.b < lo.b {
			lo = e
		}
		if e.b >= hi.b {
			hi = e
		}
	}
	return lo, hi
}

// splitKeys is one bisection iteration's pass over the working set ws: a
// stable partition that keeps the keys with b ≤ v at the front of ws and
// writes the others to spare, both in their order. It returns the count w
// of the keys ≤ v and the largest of them (valid when w > 0); on equal b the
// later key wins, which, with ws in ascending id, is (x, id) order.
//
// It has no data-dependent branch. Every key is stored to both sides and
// the side's cursor advances by the comparison's borrow bit; the maximum is
// taken over (b+1) masked to 0 above v, so keys above v never displace a key
// ≤ v, by conditional moves. The loop keeps its cursors, v and the maximum
// in registers (go build -gcflags=-S shows no stack traffic in it).
// Tracking the smallest key above v in the same loop takes two more live
// values than amd64's registers hold, and the compiler then spills a
// cursor; minKey finds that key when the search needs it.
func splitKeys(ws, spare []selKey, v uint64) (w int, maxLe selKey) {
	spare = spare[:len(ws)]
	v1 := v + 1 // v < 2⁶³: float bits of a finite non-negative x, or an id
	var maxC uint64
	for i, e := range ws {
		_, le := bits.Sub64(e.b, v1, 0) // 1 when e.b ≤ v
		ws[w] = e
		spare[i-w] = e
		w += int(le)
		if c := (e.b + 1) & -le; c >= maxC {
			maxC, maxLe.id = c, e.id
		}
	}
	maxLe.b = maxC - 1
	return w, maxLe
}

// minKey returns the smallest key of ks, which must not be empty; on equal
// b the earlier key wins. It is branch-free like splitKeys.
func minKey(ks []selKey) selKey {
	m := selKey{b: math.MaxUint64}
	for _, e := range ks {
		if e.b < m.b {
			m = e
		}
	}
	return m
}

// onSupportSum is the on-support part of the canonical mixing sum: the x
// values of the support slots whose keys are ≤ th, added in ascending id.
// It is branch-free: one 128-bit subtraction of (th.x bits, th.id+1) from
// (x bits, id) borrows exactly when the key is ≤ th, and the borrow masks
// x, so every other slot adds +0, which leaves the sum's bits unchanged (the
// sum starts at +0 and adds non-negative values, so it is never −0).
func onSupportSum(sup []supportSlot, t []float64, muPrime float64, th key) float64 {
	thb, thid := math.Float64bits(th.x), uint64(int64(th.id)+1)
	sum := 0.0
	for _, s := range sup {
		xb := xBits(s, t, muPrime)
		_, lt := bits.Sub64(uint64(s.id), thid, 0)
		_, le := bits.Sub64(xb, thb, lt)
		sum += math.Float64frombits(xb & -le)
	}
	return sum
}

// mixesWithin decides the mixing test, canonical sum < theta, from bounds
// on the sum's on-support part when they settle it: lo ≤ E ≤ hi, where E is
// the exact sum of the terms selected on-support x values, and lo and hi
// are each the float evaluation of parts products of a key count and an x
// value, added in turn. decided=false means the exact sum is needed.
//
// Proof. Let u = 2⁻⁵³ and γ_j = j·u/(1−j·u), t = terms and m = parts. No
// operation here underflows: every x is 0, an isolated root's mass, or
// |p − d/µ'| with d/µ' ≥ 1/µ', which is at least an ulp of a value ≥
// 1/(2µ') when it is not 0. So each operation rounds with relative error
// at most u.
//   - onSupportSum adds the t values in id order (every other slot adds +0,
//     which changes nothing), so its result s has |s − E| ≤ γ_{t−1}·E.
//   - hi is at least (1−γ_m) times the exact sum of its products, which is
//     at least E, and lo at most (1+γ_m) times its exact sum, at most E. So
//     s ≤ hi·(1+γ_{t−1})/(1−γ_m) and s ≥ lo·(1−γ_{t−1})/(1+γ_m).
//   - With ε = 4(t+m+2)·u, 1+ε and 1−ε are floats, and while (t+m)·u ≤ 1/8
//     the rounded products hi·(1+ε) ≥ hi·(1+ε)·(1−u) and lo·(1−ε) ≤
//     lo·(1−ε)·(1+u) still lie above and below those two bounds: ε exceeds
//     the γ terms' first order by at least 6u, which covers the products'
//     own rounding and every second-order term.
//   - rw.MixingSum(s, …) is s, or s plus a float that does not depend on s,
//     rounded. Rounding is monotone, so MixingSum of the widened bounds
//     brackets the canonical sum: below theta at the upper bound, the sum
//     is below theta; at or above theta at the lower bound, it is not.
func mixesWithin(lo, hi float64, terms, parts int, offDeg int64, offCount int, muPrime float64, size int, theta float64) (mixes, decided bool) {
	eps := float64(4*(terms+parts+2)) * 0x1p-53
	if rw.MixingSum(hi*(1+eps), offDeg, offCount, muPrime, size) < theta {
		return true, true
	}
	if rw.MixingSum(lo*(1-eps), offDeg, offCount, muPrime, size) >= theta {
		return false, true
	}
	return false, false
}

// selectIndexed runs the distributed binary search of Algorithm 1 line 14
// over the nodes the BFS tree covers: the root finds the threshold key T
// such that exactly k = size covered nodes have key ≤ T, and whether the
// sum of their x values passes the mixing test sum < theta. Every
// iteration costs one broadcast (the root ships mid down the tree) plus one
// convergecast (the O(1)-word partial aggregates flow up: the count and
// x-sum of the keys ≤ mid, the largest key ≤ mid and the smallest key >
// mid), 2·depth rounds in total, and the iteration count is O(log n)
// because each step halves either the candidate value range or the
// candidate id range. Fewer than k covered nodes fail the search.
//
// The simulator computes each aggregate centrally from two populations that
// together are the covered nodes. The covered nodes that hold mass (the
// walk step's support table, nw.support) contribute their explicit keys.
// The covered nodes that hold none answer from the degree index (sc.off):
// their x_u = d(u)/µ' depends on their degree alone, so an iteration costs
// O(support + log²n) instead of a scan over every covered node.
//
// It only reads the network, so ladder workers run it concurrently, each
// with its own scratch. One pass computes the support's keys and their
// min/max; each bisection iteration is one branch-free partition pass
// (splitKeys) over the keys still inside the bracket, and the search path —
// every mid, hence every round — is the one a scan over all covered nodes
// takes.
//
// The mixing test reads the canonical mixing sum (rw.MixingSum): on-support
// terms accumulated in ascending vertex order plus the off-support tail as
// one exact integer degree sum divided by µ' — the same summation the
// in-memory sweeps use, computed without enumerating a single off-support
// node. The bisection bounds the on-support part as it goes: a key that
// leaves the bracket below lies between the bracket's low end and the
// largest key that left with it, and a selected key still inside the
// bracket between its low end and T. Only when those bounds leave the test
// open (mixesWithin) does one more pass over the support add the terms in
// id order (onSupportSum). µ' = MuPrime(g, size) is positive unless the
// graph has no edge; the tree then holds only its root, which keeps its
// mass, so the stream is empty and never divides.
func (nw *Network) selectIndexed(sc *selScratch, idx *rw.DegreeIndex, size int, muPrime, theta float64) sizeResult {
	off := &sc.off
	off.SetMu(muPrime)
	nOff := off.Len()
	sup := nw.support
	k, covered := size, len(sup)+nOff
	if k <= 0 || k > covered {
		return sizeResult{}
	}
	offKey := func(j int) key {
		x, id := off.KeyAt(j)
		return key{x: x, id: id}
	}
	t := sc.degreeTable(idx, size, muPrime, len(sup))
	if cap(sc.ws) < len(sup) {
		sc.ws, sc.spare = make([]selKey, len(sup)), make([]selKey, len(sup))
	}
	ws, spare := sc.ws[:len(sup)], sc.spare[:len(sup)]
	// Initial convergecast: global (min, max) of the keys (§III: "All the
	// nodes send xmin and xmax to the root through a convergecast").
	lo, hi := plusInfKey, minusInfKey
	if len(sup) > 0 {
		l, h := loadKeys(ws, sup, t, muPrime)
		lo, hi = l.key(false, 0), h.key(false, 0)
	}
	if nOff > 0 {
		if kk := offKey(0); keyLess(kk, lo) {
			lo = kk
		}
		if kk := offKey(nOff - 1); keyLess(hi, kk) {
			hi = kk
		}
	}
	res := sizeResult{casts: 1}
	// cntBelow counts the explicit keys below the bracket; the sum of their
	// x values lies in [sumLo, sumHi], each the sum of parts products.
	cntBelow, parts := 0, 0
	var sumLo, sumHi float64
	// done accepts threshold T, which selects the keys below the bracket
	// and the first sel keys of ws, whose x values lie in [lo.x, selHi].
	done := func(threshold key, sel int, selHi float64) sizeResult {
		cOff := off.CountLE(threshold.x, threshold.id)
		offDeg := off.PrefixDeg(cOff)
		onLo, onHi, m := sumLo, sumHi, parts
		if sel > 0 {
			onLo += float64(sel) * lo.x
			onHi += float64(sel) * selHi
			m++
		}
		res.threshold, res.ok = threshold, true
		var decided bool
		if res.mixes, decided = mixesWithin(onLo, onHi, cntBelow+sel, m, offDeg, cOff, muPrime, size, theta); !decided {
			res.sum = rw.MixingSum(onSupportSum(sup, t, muPrime, threshold), offDeg, cOff, muPrime, size)
			res.summed, res.mixes = true, res.sum < theta
		}
		return res
	}
	if k == covered {
		// Every covered node is selected; one more convergecast ships the
		// sum.
		res.casts++
		return done(hi, len(ws), hi.x)
	}
	// The working set ws holds exactly the explicit keys inside the bracket
	// [lo, hi], in ascending id. A key that leaves the bracket is never
	// looked at again: fewer than k keys lie below lo and at least k lie at
	// or below hi, so when the search needs the largest key ≤ mid (at least
	// k keys are ≤ mid) one lies in [lo, mid], and when it needs the
	// smallest key > mid one lies in (mid, hi] — a working key or an
	// off-support one either way.
	byID := false // b holds ids: the bracket spans one x value
	for iter := 0; iter < 256; iter++ {
		if nw.stopped() {
			return res
		}
		res.pairs++
		if lo == hi {
			// The working set is lo alone, or empty when lo is off-support.
			if cntBelow+len(ws)+off.CountLE(lo.x, lo.id) != k {
				// Cannot happen with distinct keys; guard against misuse.
				return res
			}
			return done(lo, len(ws), lo.x)
		}
		mid := midKey(lo, hi)
		v := math.Float64bits(mid.x)
		if lo.x == hi.x {
			if !byID {
				for i := range ws {
					ws[i].b = uint64(ws[i].id)
				}
				byID = true
			}
			v = uint64(mid.id)
		}
		n := len(ws)
		w, maxWS := splitKeys(ws, spare, v)
		cOff := off.CountLE(mid.x, mid.id)
		countLe := cntBelow + w + cOff
		maxIn := minusInfKey // the largest working key ≤ mid
		if w > 0 {
			maxIn = maxWS.key(byID, lo.x)
		}
		if countLe >= k {
			maxLe := maxIn
			if cOff > 0 {
				if kk := offKey(cOff - 1); keyLess(maxLe, kk) {
					maxLe = kk
				}
			}
			if countLe == k {
				return done(maxLe, w, maxIn.x)
			}
			// hi = maxLe ≤ mid, and no key lies in (maxLe, mid]: the keys
			// above mid leave the bracket.
			hi = maxLe
			ws = ws[:w]
			continue
		}
		// lo = minGt > mid: the keys ≤ mid leave the bracket, their x
		// values between the old lo's and the largest of theirs.
		minGt := plusInfKey
		if w < n {
			minGt = minKey(spare[:n-w]).key(byID, lo.x)
		}
		if cOff < nOff {
			if kk := offKey(cOff); keyLess(kk, minGt) {
				minGt = kk
			}
		}
		if w > 0 {
			sumLo += float64(w) * lo.x
			sumHi += float64(w) * maxIn.x
			parts++
		}
		lo = minGt
		cntBelow += w
		ws, spare = spare[:n-w], ws
	}
	// 256 iterations bound the bisection of a 64-bit float range plus a
	// 32-bit id range many times over; reaching this is a bug.
	return res
}
