package congest

import (
	"math"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// TestEstimateConductanceMatchesReference: the distributed estimator sweeps
// the same walk distribution as rw.EstimateConductance, so the two estimates
// agree up to the flooding kernels' summation-order rounding, and the run
// consumes CONGEST rounds and messages.
func TestEstimateConductanceMatchesReference(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 128, R: 2, P: 0.25, Q: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const source, steps = 0, 8
	want, err := rw.EstimateConductance(ppm.Graph, source, steps)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph)
	got, err := EstimateConductance(nw, source, steps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("congest estimate %v, reference %v", got, want)
	}
	m := nw.Metrics()
	if m.Rounds < steps || m.Messages == 0 {
		t.Fatalf("estimate consumed rounds=%d messages=%d, want ≥ %d rounds and > 0 messages",
			m.Rounds, m.Messages, steps)
	}
}

// TestEstimateConductanceDepthLimited: a bounded BFS tree restricts the
// sweep to the covered ball; the estimate still comes back finite and
// positive on a connected graph.
func TestEstimateConductanceDepthLimited(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 128, R: 2, P: 0.25, Q: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph)
	phi, err := EstimateConductance(nw, 0, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if phi <= 0 || math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Fatalf("depth-limited estimate %v not a positive finite conductance", phi)
	}
}

// TestEstimateConductanceCostClosedForm pins the estimate's cost to the
// protocol it simulates: the BFS tree's rounds, one flood round per step and
// a convergecast+broadcast pair (2·depth rounds) per sweep after the first
// step; messages are the tree's announcements, every flood round's sends
// from the walk's support and 2·(tree size − 1) per pair. The observer sees
// each of those rounds once, numbered consecutively, carrying every message.
func TestEstimateConductanceCostClosedForm(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 128, R: 2, P: 0.25, Q: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	g := ppm.Graph
	const source, maxSteps = 0, 8
	for _, depthLimit := range []int{-1, 1} {
		tree, err := soloNetwork(g).buildTree(source, depthLimit)
		if err != nil {
			t.Fatal(err)
		}
		// Every level announces itself once, unless the limit stops the
		// build first.
		treeRounds := len(tree.Levels)
		if depthLimit >= 0 {
			treeRounds = min(treeRounds, depthLimit)
		}
		var want Metrics
		want.Rounds = treeRounds + maxSteps + (maxSteps-1)*2*tree.MaxDepth()
		for _, lvl := range tree.Levels[:treeRounds] {
			for _, u := range lvl {
				want.Messages += int64(g.Degree(u))
			}
		}
		want.Messages += int64((maxSteps - 1) * 2 * (tree.Size() - 1))
		p, next := make(rw.Dist, g.NumVertices()), make(rw.Dist, g.NumVertices())
		p[source] = 1
		for step := 0; step < maxSteps; step++ {
			for v, mass := range p {
				if mass != 0 {
					want.Messages += int64(g.Degree(v))
				}
			}
			p, next = rw.Step(g, p, next), p
		}

		nw := NewNetwork(g)
		var observed, words int64
		nw.SetLoadObserver(func(round int, loads []LinkLoad) {
			if observed++; int64(round) != observed {
				t.Fatalf("depth %d: observer saw round %d as call %d", depthLimit, round, observed)
			}
			for _, ld := range loads {
				words += int64(ld.Words)
			}
		})
		if _, err := EstimateConductance(nw, source, maxSteps, depthLimit); err != nil {
			t.Fatal(err)
		}
		if got := nw.Metrics(); got != want {
			t.Fatalf("depth %d: estimate cost %+v, closed form %+v", depthLimit, got, want)
		}
		if observed != int64(want.Rounds) || words != want.Messages {
			t.Fatalf("depth %d: observer saw %d rounds and %d words, closed form %+v", depthLimit, observed, words, want)
		}
	}
}

// TestEstimateConductanceRejectsBadInput: argument validation mirrors the
// reference estimator.
func TestEstimateConductanceRejectsBadInput(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 64, R: 2, P: 0.3, Q: 0.02}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph)
	if _, err := EstimateConductance(nw, -1, 5, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := EstimateConductance(nw, 0, 0, -1); err == nil {
		t.Fatal("zero step budget accepted")
	}
}
