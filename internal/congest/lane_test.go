package congest

import (
	"reflect"
	"slices"
	"testing"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
)

// This file holds the test side of lane accounting. The one-lane harness
// lets unit tests drive the package's lane-accounted primitives (tree
// building, collectives, selections, flooding) the way a one-walk run does.
// The per-message broadcast and convergecast are what the one-call
// collectives replaced: one round per level and one accounted message per
// tree edge, kept as the reference the collectives' costs and link loads
// are compared against.

// soloNetwork returns a network over g with one lane open inside an open
// phase: the state in which a one-walk run charges its rounds.
func soloNetwork(g *graph.Graph) *Network {
	nw := NewNetwork(g)
	nw.beginBatch(1)
	nw.beginPhase()
	return nw
}

// soloMetrics folds the open phase into nw's metrics, flushing its rounds to
// the load observer, opens the next phase and returns the metrics.
func soloMetrics(nw *Network) Metrics {
	nw.endPhase()
	nw.beginPhase()
	return nw.Metrics()
}

// floodOnce advances the one walk (p, next) by one flood round of batchFlood
// in nw's current lane and returns the walk's new (p, next).
func floodOnce(nw *Network, p, next rw.Dist) (rw.Dist, rw.Dist) {
	w := &batchWalk{p: p, next: next}
	batchFlood(nw, []*batchWalk{w}, nw.degInvTable(), make([]int32, len(p)))
	return w.p, w.next
}

// observedRound is one round as a load observer received it.
type observedRound struct {
	r     int
	loads []LinkLoad
}

// recordRounds returns a load observer that appends a copy of every round
// it receives to into.
func recordRounds(into *[]observedRound) LoadObserver {
	return func(r int, loads []LinkLoad) {
		*into = append(*into, observedRound{r, append([]LinkLoad(nil), loads...)})
	}
}

// sameRounds reports whether two observers saw the same rounds, load for
// load.
func sameRounds(a, b []observedRound) bool {
	return slices.EqualFunc(a, b, func(x, y observedRound) bool {
		return x.r == y.r && slices.Equal(x.loads, y.loads)
	})
}

// sendReference accounts one message from -> to in the current lane round,
// naming its link to the load observer.
func (nw *Network) sendReference(from, to int) {
	nw.accountMessages(1)
	if nw.loadObs != nil {
		r := nw.lanes[nw.curLane].phaseRounds - 1
		nw.phaseLoads[r] = append(nw.phaseLoads[r], LinkLoad{From: int32(from), To: int32(to), Words: 1})
	}
}

// broadcastReference is the per-message broadcast: per level one round in
// which every parent forwards the value to each child.
func (nw *Network) broadcastReference(t *Tree) {
	for d := 0; d < len(t.Levels)-1; d++ {
		nw.beginRound()
		for _, u := range t.Levels[d+1] {
			nw.sendReference(t.Parent[u], u)
		}
	}
}

// convergecastReference is the per-message convergecast: per level, deepest
// first, one round in which every node ships its partial aggregate to its
// parent.
func (nw *Network) convergecastReference(t *Tree) {
	for d := len(t.Levels) - 1; d >= 1; d-- {
		nw.beginRound()
		for _, u := range t.Levels[d] {
			nw.sendReference(u, t.Parent[u])
		}
	}
}

// TestCollectivesMatchPerMessageReference: a one-call broadcast or
// convergecast charges exactly what the per-message reference charges — the
// same rounds and messages, per lane and in total, and the same link loads,
// round by round — on a full tree and on a depth-limited one, run solo and
// inside a 3-lane phase whose lanes have different depths.
func TestCollectivesMatchPerMessageReference(t *testing.T) {
	g := gnpGraph(t, 200, 5)
	type lanePlan struct {
		root, depthLimit int
		ops              string // 'b' broadcast, 'c' convergecast, in order
	}
	cases := []struct {
		name  string
		lanes []lanePlan
	}{
		{"solo full tree", []lanePlan{{0, -1, "cbcbc"}}},
		{"solo depth-limited", []lanePlan{{0, 2, "bccb"}}},
		{"3 lanes", []lanePlan{{0, -1, "cb"}, {17, 1, "bcbcc"}, {150, 2, "c"}}},
	}
	type run struct {
		rounds []observedRound
		total  Metrics
		lanes  []Metrics
		depths []int
	}
	for _, c := range cases {
		exec := func(reference bool) run {
			var out run
			nw := NewNetwork(g)
			nw.SetLoadObserver(recordRounds(&out.rounds))
			nw.beginBatch(len(c.lanes))
			trees := make([]*Tree, len(c.lanes))
			nw.beginPhase()
			for i, l := range c.lanes {
				nw.enterLane(i)
				tree, err := nw.buildTree(l.root, l.depthLimit)
				if err != nil {
					t.Fatal(err)
				}
				trees[i] = tree
				out.depths = append(out.depths, tree.MaxDepth())
			}
			nw.endPhase()
			nw.beginPhase()
			for i, l := range c.lanes {
				nw.enterLane(i)
				for _, op := range l.ops {
					switch {
					case op == 'b' && reference:
						nw.broadcastReference(trees[i])
					case op == 'b':
						nw.broadcast(trees[i])
					case reference:
						nw.convergecastReference(trees[i])
					default:
						nw.convergecast(trees[i])
					}
				}
			}
			nw.endPhase()
			for i := range c.lanes {
				out.lanes = append(out.lanes, nw.laneMetrics(i))
			}
			nw.endBatch()
			out.total = nw.Metrics()
			return out
		}
		got, want := exec(false), exec(true)
		for i, l := range c.lanes {
			if l.depthLimit >= 0 && got.depths[i] != l.depthLimit {
				t.Fatalf("%s: lane %d tree depth %d, want the limit %d", c.name, i, got.depths[i], l.depthLimit)
			}
		}
		if len(c.lanes) > 1 && (got.depths[0] == got.depths[1] || got.depths[1] == got.depths[2] || got.depths[0] == got.depths[2]) {
			t.Fatalf("%s: lane depths %v are not distinct", c.name, got.depths)
		}
		if got.total != want.total || !reflect.DeepEqual(got.lanes, want.lanes) {
			t.Fatalf("%s: one-call metrics %+v lanes %+v, per-message reference %+v lanes %+v",
				c.name, got.total, got.lanes, want.total, want.lanes)
		}
		if len(got.rounds) != len(want.rounds) || len(got.rounds) != got.total.Rounds {
			t.Fatalf("%s: observer saw %d rounds, reference %d, metrics %d",
				c.name, len(got.rounds), len(want.rounds), got.total.Rounds)
		}
		for i := range want.rounds {
			if !reflect.DeepEqual(got.rounds[i], want.rounds[i]) {
				t.Fatalf("%s: round %d loads differ: %+v vs %+v", c.name, i, got.rounds[i], want.rounds[i])
			}
		}
	}
}
