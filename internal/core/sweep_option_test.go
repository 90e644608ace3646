package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestDetectDenseSweepOptionMatches: WithDenseSweep swaps the engine's
// sparse-aware sweep for the dense path, which extracts the support with one
// scan of p on every step, without changing a single detection — the whole
// pool loop is bit-identical either way.
func TestDetectDenseSweepOptionMatches(t *testing.T) {
	ppm := regressPPM(t, 29)
	delta := ppm.Config.ExpectedConductance()
	def, err := Detect(ppm.Graph, WithDelta(delta), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Detect(ppm.Graph, WithDelta(delta), WithSeed(3), WithDenseSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, dense) {
		t.Fatal("sparse-aware and dense-sweep Detect results differ")
	}
}

// TestStepObserverReportsSweepModes: the observer sees every walk step with
// a coherent trajectory — sparse sweeps while the support is small, support
// reported as -1 exactly when the engine has gone dense — and installing it
// does not perturb the detection.
func TestStepObserverReportsSweepModes(t *testing.T) {
	ppm := regressPPM(t, 31)
	delta := ppm.Config.ExpectedConductance()
	want, wantStats, err := DetectCommunity(ppm.Graph, 2, WithDelta(delta))
	if err != nil {
		t.Fatal(err)
	}
	var steps []StepTiming
	got, gotStats, err := DetectCommunity(ppm.Graph, 2, WithDelta(delta),
		WithStepObserver(func(st StepTiming) { steps = append(steps, st) }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatal("observer changed the detection outcome")
	}
	if len(steps) != wantStats.WalkLength {
		t.Fatalf("observed %d steps, walk length %d", len(steps), wantStats.WalkLength)
	}
	for i, st := range steps {
		if st.Seed != 2 || st.Step != i+1 {
			t.Fatalf("step %d: unexpected identity %+v", i, st)
		}
		if st.SparseSweep != (st.Support >= 0) {
			t.Fatalf("step %d: sweep mode %v inconsistent with support %d", i, st.SparseSweep, st.Support)
		}
		if st.StepNS < 0 || st.SweepNS < 0 {
			t.Fatalf("step %d: negative timing %+v", i, st)
		}
	}
	if !steps[0].SparseSweep {
		t.Fatal("first step of a point-source walk was not sparse")
	}
}

// TestStepObserverParallel: DetectParallel drives the observer from one
// goroutine per walk; a mutex-guarded callback must see every live walk's
// steps (exercised under -race by CI).
func TestStepObserverParallel(t *testing.T) {
	ppm := regressPPM(t, 37)
	delta := ppm.Config.ExpectedConductance()
	var mu sync.Mutex
	perSeed := make(map[int]int)
	res, err := DetectParallel(ppm.Graph, ppm.Config.R, WithDelta(delta), WithSeed(5),
		WithStepObserver(func(st StepTiming) {
			mu.Lock()
			perSeed[st.Seed]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	for _, det := range res.Detections {
		if det.Stats.WalkLength > 0 {
			walked++
			if perSeed[det.Stats.Seed] == 0 {
				t.Fatalf("seed %d walked %d steps but the observer saw none",
					det.Stats.Seed, det.Stats.WalkLength)
			}
		}
	}
	if walked == 0 {
		t.Fatal("no walks ran")
	}
}
