package rw

import "sort"

// StopRule parameterises how one seed's walk of Algorithm 1 ends: the walk
// stops once its largest mixing set fails to grow by a factor (1+Delta)
// for Patience consecutive steps (lines 18–20; Patience 1 is the paper's
// rule), or when it reaches MaxLen steps.
type StopRule struct {
	Delta    float64
	Patience int
	MaxLen   int
}

// CommunityStats records per-seed diagnostics of one Algorithm 1 run. Every
// engine fills it through CommunityTracker, so the stats of one seed are
// equal field for field whichever engine ran the walk.
type CommunityStats struct {
	Seed         int  // seed vertex s
	WalkLength   int  // steps taken before the walk ended
	Stopped      bool // true if the (1+δ) rule fired, false if the length cap hit
	FinalSetSize int  // |C_s|, which contains s
	SizesChecked int  // total ladder entries evaluated (complexity accounting)
	// FrozenAt is the walk length at which the output mixing set was last
	// recorded — the l of the final S_l that became the community (before
	// seed re-insertion). 0 when no mixing set was ever found (singleton
	// fallback). The deterministic walk makes this replayable:
	// core.Detector.ReverifyCommunity re-walks to FrozenAt and re-runs just
	// that one sweep to check a cached community against a mutated graph.
	FrozenAt int
}

// CommunityTracker applies the Algorithm 1 stop rule to the stream of
// per-length mixing sets of one seed's walk and emits the community C_s.
// It is the only home of the stop logic: the in-memory engines feed it from
// WalkEngine sweeps and the CONGEST engine from its distributed sweeps, so
// the engines cannot drift apart.
//
// The tracker copies every mixing set it retains into its own reused
// buffers. That decouples it from a sweeper's scratch storage (whose
// Vertices alias is only valid until the next sweep) and lets a reused
// tracker run detection after detection without allocating: Reset rewinds
// the buffers instead of dropping them.
type CommunityTracker struct {
	rule      StopRule
	stats     CommunityStats
	prev      []int // copy of the last passing mixing set
	prevFound bool
	stalled   int
	done      bool
	out       []int // finalised community
}

// Reset rewinds the tracker for a fresh walk from seed, keeping its
// buffers. The previous run's Community becomes invalid, so callers that
// retain a community across runs must copy it.
func (t *CommunityTracker) Reset(seed int, rule StopRule) {
	t.rule = rule
	t.stats = CommunityStats{Seed: seed}
	t.prev = t.prev[:0]
	t.prevFound = false
	t.stalled = 0
	t.done = false
	t.out = t.out[:0]
}

// Observe records the largest mixing set found after walk step l and
// reports whether the walk has ended, by the stop rule or by the length
// cap. The rule compares consecutive *existing* mixing sets. While the
// walk is still spreading, no candidate size passes the mixing condition
// at all (the ball outgrows the last passing size before the next ladder
// size becomes reachable); those steps are part of the growth phase, not a
// stall, so they are skipped rather than counted against the (1+δ) rule.
func (t *CommunityTracker) Observe(l int, cur MixingSet) bool {
	t.stats.WalkLength = l
	t.stats.SizesChecked += cur.SizesChecked
	if t.prevFound && cur.Found() {
		if float64(cur.Size()) < (1+t.rule.Delta)*float64(len(t.prev)) {
			if t.stallEnds() {
				// Output S_{ℓ-1}, the last set before the stall run began
				// (Algorithm 1 line 20).
				t.settle(true)
				return true
			}
			// Keep prev (the pre-stall set) while waiting out the plateau.
			t.stalled++
			return t.capped(l)
		}
		t.stalled = 0
	}
	if cur.Found() {
		t.prev = append(t.prev[:0], cur.Vertices...)
		t.prevFound = true
		t.stats.FrozenAt = l
	}
	return t.capped(l)
}

// Continues reports whether the walk is certain to continue past step l,
// whatever mixing set Observe(l, ·) is given: l is below the length cap,
// and no stall at l can complete the stop rule, because no set has been
// found yet or the stall run would stay shorter than Patience. A caller
// may then start step l+1's work before step l's sweep finishes.
func (t *CommunityTracker) Continues(l int) bool {
	return !t.done && l < t.rule.MaxLen && (!t.prevFound || !t.stallEnds())
}

// stallEnds reports whether one more stalled step completes the stop rule.
func (t *CommunityTracker) stallEnds() bool { return t.stalled+1 >= t.rule.Patience }

// capped ends the walk at the length cap with the best set so far. A seed
// in a well-mixed graph ends up here with S = V.
func (t *CommunityTracker) capped(l int) bool {
	if l < t.rule.MaxLen {
		return false
	}
	t.settle(false)
	return true
}

// settle finalises the community C_s: the last recorded mixing set with
// the seed inserted. With no mixing set at any length (pathological
// inputs: tiny graphs, isolated vertices) it falls back to the singleton
// {s}.
func (t *CommunityTracker) settle(stopped bool) {
	t.done = true
	t.stats.Stopped = stopped
	if t.prevFound {
		t.out = WithSeed(t.out[:0], t.prev, t.stats.Seed)
	} else {
		t.out = append(t.out[:0], t.stats.Seed)
	}
	t.stats.FinalSetSize = len(t.out)
}

// Done reports whether the walk has ended.
func (t *CommunityTracker) Done() bool { return t.done }

// Stats returns the run's diagnostics so far (final once Done).
func (t *CommunityTracker) Stats() CommunityStats { return t.stats }

// Community returns C_s, sorted ascending, once Done. The slice is the
// tracker's buffer: valid until its next Reset.
func (t *CommunityTracker) Community() []int { return t.out }

// WithSeed appends set to dst with the seed vertex inserted at its sorted
// position (unless already present): the paper defines C_s as a set
// containing s (Definition 2 takes the minimum over sets containing the
// source), but the localised |S|-smallest-x_u selection can drop the seed
// when its own probability still deviates from the restricted stationary
// value. dst must not alias set.
func WithSeed(dst, set []int, s int) []int {
	i := sort.SearchInts(set, s)
	dst = append(dst, set[:i]...)
	if i >= len(set) || set[i] != s {
		dst = append(dst, s)
	}
	return append(dst, set[i:]...)
}
