package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestStepObserverReportsSweepModes: the observer sees every walk step with
// a coherent trajectory — a support size while the engine is sparse (its
// sweep then takes the frontier), and -1 from the step the engine goes
// dense on, never sparse again — and installing it does not perturb the
// detection.
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
		if st.Support < -1 || st.Support == 0 {
			t.Fatalf("step %d: support %d", i, st.Support)
		}
		if i > 0 && steps[i-1].Support < 0 && st.Support >= 0 {
			t.Fatalf("step %d: sparse again after the dense kernel took over", i)
		}
		if st.StepNS < 0 || st.SweepNS < 0 {
			t.Fatalf("step %d: negative timing %+v", i, st)
		}
	}
	if steps[0].Support < 0 {
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
