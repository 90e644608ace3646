package kmachine

import (
	"context"
	"math"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// walkConfig returns the per-walk CONGEST parameters the Detector's
// defaults resolve to on an n-vertex graph.
func walkConfig(t *testing.T, n int) congest.Config {
	t.Helper()
	s, err := core.Resolve(n)
	if err != nil {
		t.Fatal(err)
	}
	return s.CongestConfig()
}

func TestRandomVertexPartition(t *testing.T) {
	r := rng.New(1)
	assign, err := RandomVertexPartition(1000, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if assign.K != 4 || len(assign.Home) != 1000 {
		t.Fatalf("assignment shape: K=%d len=%d", assign.K, len(assign.Home))
	}
	sizes := assign.MachineSizes()
	for m, s := range sizes {
		if math.Abs(float64(s)-250) > 5*math.Sqrt(250) {
			t.Errorf("machine %d holds %d vertices, want ~250", m, s)
		}
	}
}

func TestRandomVertexPartitionErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := RandomVertexPartition(10, 1, r); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := RandomVertexPartition(-1, 2, r); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(Assignment{K: 1}, 1); err == nil {
		t.Fatal("K=1 accepted")
	}
	assign, _ := RandomVertexPartition(4, 2, rng.New(1))
	if _, err := NewSimulator(assign, 0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestObserverAccounting(t *testing.T) {
	// 4 vertices, 2 machines: 0,1 on machine 0; 2,3 on machine 1.
	assign := Assignment{Home: []int{0, 0, 1, 1}, K: 2}
	sim, err := NewSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.LoadObserver()
	// Round 1: one local message (0->1) and two cross messages (1->2, 2->0).
	obs(1, []congest.LinkLoad{{From: 0, To: 1, Words: 1}, {From: 1, To: 2, Words: 1}, {From: 2, To: 0, Words: 1}})
	res := sim.Results()
	if res.CongestRounds != 1 || res.TotalMessages != 3 || res.CrossMessages != 2 {
		t.Fatalf("results = %+v", res)
	}
	// Link loads: (0,1)=1 and (1,0)=1, max 1, B=1 → 1 k-machine round.
	if res.Rounds != 1 {
		t.Fatalf("k-machine rounds = %d, want 1", res.Rounds)
	}
	// Round 2: three cross words on the same directed machine link, two of
	// them one multi-word load → 3 rounds.
	obs(2, []congest.LinkLoad{{From: 0, To: 2, Words: 2}, {From: 1, To: 3, Words: 1}})
	res = sim.Results()
	if res.Rounds != 1+3 {
		t.Fatalf("k-machine rounds = %d, want 4", res.Rounds)
	}
	if res.CongestRounds != 2 || res.TotalMessages != 6 || res.CrossMessages != 5 {
		t.Fatalf("results = %+v", res)
	}
	if res.MaxLinkLoad != 3 {
		t.Fatalf("max link load = %d, want 3", res.MaxLinkLoad)
	}
}

func TestBandwidthDividesLoad(t *testing.T) {
	assign := Assignment{Home: []int{0, 1}, K: 2}
	sim, err := NewSimulator(assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Entries for the same link accumulate within a round.
	sim.LoadObserver()(1, []congest.LinkLoad{{From: 0, To: 1, Words: 7}, {From: 0, To: 1, Words: 3}})
	// 10 messages over a B=4 link → ⌈10/4⌉ = 3 rounds.
	if got := sim.Results().Rounds; got != 3 {
		t.Fatalf("rounds = %d, want 3", got)
	}
}

func TestLocalRoundsAreFree(t *testing.T) {
	assign := Assignment{Home: []int{0, 0}, K: 2}
	sim, err := NewSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.LoadObserver()(1, []congest.LinkLoad{{From: 0, To: 1, Words: 1}, {From: 1, To: 0, Words: 1}})
	res := sim.Results()
	if res.Rounds != 0 {
		t.Fatalf("co-located traffic cost %d rounds, want 0", res.Rounds)
	}
	if res.CrossMessages != 0 {
		t.Fatalf("cross messages = %d, want 0", res.CrossMessages)
	}
}

// TestLoadObserverEndToEndMatchesTraffic: the batched execution of a set of
// CONGEST walks converts, through the load observer, to the same message
// count as the walks run one at a time and to fewer CONGEST and k-machine
// rounds.
func TestLoadObserverEndToEndMatchesTraffic(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := RandomVertexPartition(256, 4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := walkConfig(t, 256)
	ccfg.Delta = cfgGen.ExpectedConductance()

	// Batched CONGEST walks convert in fewer k-machine rounds than the same
	// walks run one at a time: the per-round max link load grows sublinearly
	// in the batch while the round count drops by the batch factor.
	seeds := []int{0, 128, 64, 200}
	seqSim, err := NewSimulator(assign, 8)
	if err != nil {
		t.Fatal(err)
	}
	nw := congest.NewNetwork(ppm.Graph)
	nw.SetLoadObserver(seqSim.LoadObserver())
	for _, s := range seeds {
		if _, _, err := congest.DetectCommunity(nw, s, ccfg); err != nil {
			t.Fatal(err)
		}
	}
	batSim, err := NewSimulator(assign, 8)
	if err != nil {
		t.Fatal(err)
	}
	nw2 := congest.NewNetwork(ppm.Graph)
	nw2.SetLoadObserver(batSim.LoadObserver())
	if _, err := congest.DetectBatch(nw2, seeds, ccfg); err != nil {
		t.Fatal(err)
	}
	seq, bat := seqSim.Results(), batSim.Results()
	if bat.TotalMessages != seq.TotalMessages {
		t.Fatalf("batched conversion saw %d messages, sequential %d", bat.TotalMessages, seq.TotalMessages)
	}
	if bat.CongestRounds >= seq.CongestRounds {
		t.Fatalf("batched conversion saw %d CONGEST rounds, sequential %d", bat.CongestRounds, seq.CongestRounds)
	}
	if bat.Rounds >= seq.Rounds {
		t.Fatalf("batched conversion took %d k-machine rounds, sequential %d", bat.Rounds, seq.Rounds)
	}
}

// TestRunSuspendsInstalledObservers: Run must replace a caller-installed
// load observer with its own for the run — the caller's sim.LoadObserver()
// left active as well would fold every round into the results twice — and
// must restore it afterwards.
func TestRunSuspendsInstalledObservers(t *testing.T) {
	g, err := gen.Gnp(64, 0.2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := RandomVertexPartition(64, 2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw := congest.NewNetwork(g)
	// The pre-Run idiom: the caller wired the load observer themselves.
	var callerRounds int
	callerObs := sim.LoadObserver()
	nw.SetLoadObserver(func(round int, loads []congest.LinkLoad) {
		callerRounds++
		callerObs(round, loads)
	})
	cfg := walkConfig(t, 64)
	err = sim.Run(context.Background(), nw, func(ctx context.Context) error {
		_, _, err := congest.DetectCommunityContext(ctx, nw, 0, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sim.Results().CongestRounds, nw.Metrics().Rounds; got != want {
		t.Fatalf("conversion saw %d rounds for %d simulated — observers double-counted", got, want)
	}
	if callerRounds != 0 {
		t.Fatalf("the caller's observer saw %d rounds during Run", callerRounds)
	}
	if nw.LoadObserver() == nil {
		t.Fatal("Run did not restore the observer it suspended")
	}
	nw.LoadObserver()(1, nil)
	if callerRounds != 1 {
		t.Fatal("the restored observer is not the caller's")
	}
}

func TestEndToEndScalingInK(t *testing.T) {
	// §III-B: with more machines the same CONGEST execution converts to
	// fewer k-machine rounds (load spreads over ~k² links).
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[int]int64{}
	for _, k := range []int{2, 8} {
		assign, err := RandomVertexPartition(256, k, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		nw := congest.NewNetwork(ppm.Graph)
		nw.SetLoadObserver(sim.LoadObserver())
		cfg := walkConfig(t, 256)
		cfg.Delta = cfgGen.ExpectedConductance()
		if _, _, err := congest.DetectCommunity(nw, 0, cfg); err != nil {
			t.Fatal(err)
		}
		rounds[k] = sim.Results().Rounds
	}
	if rounds[8] >= rounds[2] {
		t.Fatalf("k=8 rounds (%d) not below k=2 rounds (%d)", rounds[8], rounds[2])
	}
}

func TestConversionBound(t *testing.T) {
	// M/k²B + ∆T/kB with M=1000, T=10, ∆=5, k=2, B=1 → 250 + 25 = 275.
	got := ConversionBound(1000, 10, 5, 2, 1)
	if math.Abs(got-275) > 1e-9 {
		t.Fatalf("bound = %v, want 275", got)
	}
	// Larger k strictly decreases the bound.
	if ConversionBound(1000, 10, 5, 4, 1) >= got {
		t.Fatal("bound not decreasing in k")
	}
}

func TestSimulatedRoundsRespectConversionBound(t *testing.T) {
	// The measured conversion must not exceed the Conversion Theorem bound
	// by more than a polylog factor; in practice it sits well below it.
	g, err := gen.Gnp(256, 2*gen.Log2(256)/256, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	assign, err := RandomVertexPartition(256, k, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw := congest.NewNetwork(g)
	nw.SetLoadObserver(sim.LoadObserver())
	_, stats, err := congest.DetectCommunity(nw, 0, walkConfig(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Results()
	bound := ConversionBound(stats.Metrics.Messages, stats.Metrics.Rounds, g.MaxDegree(), k, 1)
	// Allow the polylog slack the Õ hides.
	logN := math.Log2(256)
	if float64(res.Rounds) > bound*logN*logN {
		t.Fatalf("measured %d rounds exceeds bound %v (×log²n slack)", res.Rounds, bound)
	}
}
