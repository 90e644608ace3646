package rw

import "testing"

// TestTrackerContinuesExactly pins Continues against Observe: before step
// l, Continues(l) holds exactly when no mixing set Observe(l, ·) could be
// given ends the walk. Every stream of up to five steps over six candidate
// sets (none found, and sizes 1 to 16) is replayed under Patience 1–3 and
// length caps 3 and 6; at each step a fresh replay of the prefix observes
// each candidate in turn.
func TestTrackerContinuesExactly(t *testing.T) {
	cands := []MixingSet{{SizesChecked: 1}}
	for _, size := range []int{1, 2, 4, 8, 16} {
		vs := make([]int, size)
		for i := range vs {
			vs[i] = i
		}
		cands = append(cands, MixingSet{Vertices: vs, SizesChecked: 1})
	}
	replay := func(rule StopRule, prefix []int) *CommunityTracker {
		var trk CommunityTracker
		trk.Reset(0, rule)
		for i, c := range prefix {
			trk.Observe(i+1, cands[c])
		}
		return &trk
	}
	var walk func(rule StopRule, prefix []int)
	walk = func(rule StopRule, prefix []int) {
		l := len(prefix) + 1
		continues := replay(rule, prefix).Continues(l)
		ends := false
		for c := range cands {
			next := append(prefix[:len(prefix):len(prefix)], c)
			if replay(rule, prefix).Observe(l, cands[c]) {
				ends = true
			} else if l < 5 {
				walk(rule, next)
			}
		}
		if continues == ends {
			t.Fatalf("patience %d cap %d after %v: Continues(%d) = %v, yet some set ends the walk: %v",
				rule.Patience, rule.MaxLen, prefix, l, continues, ends)
		}
	}
	for _, patience := range []int{1, 2, 3} {
		for _, maxLen := range []int{3, 6} {
			walk(StopRule{Delta: 0.5, Patience: patience, MaxLen: maxLen}, nil)
		}
	}
}
