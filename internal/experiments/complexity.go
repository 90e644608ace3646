package experiments

import (
	"context"
	"fmt"
	"math"

	"cdrw/internal/baseline"
	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/kmachine"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
)

// congestConfig resolves opts on an n-vertex graph into the per-walk
// CONGEST parameters a Detector with those options runs.
func congestConfig(n int, opts ...core.Option) (congest.Config, error) {
	s, err := core.Resolve(n, opts...)
	if err != nil {
		return congest.Config{}, err
	}
	return s.CongestConfig(), nil
}

// CongestRounds validates Theorem 5 empirically: the CONGEST round and
// message complexity of detecting one community as n grows. Series report
// the measured rounds, a log⁴n reference curve scaled to the first data
// point, measured messages, and the Õ((n²/r)(p+q(r−1))) message reference.
func CongestRounds(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	blockSizes := []int{128, 256, 512, 1024}
	if cfg.Quick {
		blockSizes = []int{128, 256}
	}
	const r = 2
	fig := &Figure{
		Name:   "congest-rounds",
		Title:  "CONGEST complexity of one CDRW community (Theorem 5)",
		XLabel: "n",
		YLabel: "rounds / messages",
	}
	var (
		rounds    Series
		roundsRef Series
		msgs      Series
		msgsRef   Series
	)
	rounds.Label = "rounds"
	roundsRef.Label = "c*log4(n)"
	msgs.Label = "messages"
	msgsRef.Label = "c*(n^2/r)(p+q)"
	var roundScale, msgScale float64
	for i, s := range blockSizes {
		sf := float64(s)
		gcfg := gen.PPMConfig{N: r * s, R: r, P: 2 * gen.Log2(s) / sf, Q: 0.1 / sf}
		ppm, err := gen.NewPPM(gcfg, rng.New(cfg.Seed+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("congest-rounds n=%d: %w", r*s, err)
		}
		opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithDelta(gcfg.ExpectedConductance())}
		ccfg, err := congestConfig(r*s, opts...)
		if err != nil {
			return nil, fmt.Errorf("congest-rounds n=%d: %w", r*s, err)
		}
		nw := congest.NewNetwork(ppm.Graph)
		_, stats, err := congest.DetectCommunity(nw, 0, ccfg)
		if err != nil {
			return nil, fmt.Errorf("congest-rounds n=%d: %w", r*s, err)
		}
		if i == 0 {
			fig.stamp(r*s, opts...)
		}
		n := float64(r * s)
		log4 := math.Pow(math.Log2(n), 4)
		msgRef := n * n / float64(r) * (gcfg.P + gcfg.Q*float64(r-1))
		if i == 0 {
			roundScale = float64(stats.Metrics.Rounds) / log4
			msgScale = float64(stats.Metrics.Messages) / msgRef
		}
		rounds.X = append(rounds.X, n)
		rounds.Y = append(rounds.Y, float64(stats.Metrics.Rounds))
		roundsRef.X = append(roundsRef.X, n)
		roundsRef.Y = append(roundsRef.Y, roundScale*log4)
		msgs.X = append(msgs.X, n)
		msgs.Y = append(msgs.Y, float64(stats.Metrics.Messages))
		msgsRef.X = append(msgsRef.X, n)
		msgsRef.Y = append(msgsRef.Y, msgScale*msgRef)
	}
	fig.Series = []Series{rounds, roundsRef, msgs, msgsRef}
	return fig, nil
}

// CongestBatchRounds measures the batched CONGEST pool loop: total rounds
// and messages of a full CONGEST-engine Detect as WithCongestBatch grows,
// batch 1 being the sequential one-seed-at-a-time loop. At every batch size
// each detection is bit-identical to a solo run of its seed (the
// conformance suite enforces this); the figure shows the trade the batching
// buys — shared rounds shrink the round count by up to the batch factor
// while speculative walks can add messages.
func CongestBatchRounds(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	s := 256
	if cfg.Quick {
		s = 96
	}
	const r = 4
	sf := float64(s)
	gcfg := gen.PPMConfig{N: r * s, R: r, P: 2 * gen.Log2(s) / sf, Q: 0.1 / sf}
	ppm, err := gen.NewPPM(gcfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Name:   "congest-batch",
		Title:  fmt.Sprintf("batched CONGEST pool loop (n=%d, r=%d)", r*s, r),
		XLabel: "batch",
		YLabel: "rounds / messages",
	}
	var rounds, msgs Series
	rounds.Label = "rounds"
	msgs.Label = "messages"
	for _, batch := range []int{1, 2, 4, 8} {
		opts := []core.Option{core.WithEngine(core.EngineCongest),
			core.WithDelta(gcfg.ExpectedConductance()), core.WithCongestBatch(batch)}
		d, err := core.NewDetector(ppm.Graph, opts...)
		if err != nil {
			return nil, fmt.Errorf("congest-batch b=%d: %w", batch, err)
		}
		if _, err := d.Detect(context.Background()); err != nil {
			return nil, fmt.Errorf("congest-batch b=%d: %w", batch, err)
		}
		if batch == 1 {
			// The stamp records the baseline; the X axis carries the sweep.
			fig.stamp(r*s, opts...)
		}
		m, _ := d.CongestMetrics()
		rounds.X = append(rounds.X, float64(batch))
		rounds.Y = append(rounds.Y, float64(m.Rounds))
		msgs.X = append(msgs.X, float64(batch))
		msgs.Y = append(msgs.Y, float64(m.Messages))
	}
	fig.Series = []Series{rounds, msgs}
	return fig, nil
}

// KMachineScaling validates §III-B empirically: the k-machine round count
// of one CDRW community as the number of machines k grows, against the
// Conversion Theorem reference Õ(M/k² + ∆T/k).
func KMachineScaling(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	s := 256
	if cfg.Quick {
		s = 128
	}
	const r = 2
	sf := float64(s)
	gcfg := gen.PPMConfig{N: r * s, R: r, P: 2 * gen.Log2(s) / sf, Q: 0.1 / sf}
	ppm, err := gen.NewPPM(gcfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Name:   "kmachine",
		Title:  fmt.Sprintf("k-machine rounds for one community (n=%d)", r*s),
		XLabel: "k",
		YLabel: "rounds",
	}
	var measured, bound Series
	measured.Label = "measured"
	bound.Label = "M/k^2+dT/k"
	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithDelta(gcfg.ExpectedConductance())}
	ccfg, err := congestConfig(r*s, opts...)
	if err != nil {
		return nil, fmt.Errorf("kmachine: %w", err)
	}
	fig.stamp(r*s, opts...)
	for _, k := range []int{2, 4, 8, 16} {
		assign, err := kmachine.RandomVertexPartition(r*s, k, rng.New(cfg.Seed+uint64(k)))
		if err != nil {
			return nil, err
		}
		sim, err := kmachine.NewSimulator(assign, 1)
		if err != nil {
			return nil, err
		}
		nw := congest.NewNetwork(ppm.Graph)
		// The load observer feeds the conversion every round as per-link
		// aggregate word counts.
		nw.SetLoadObserver(sim.LoadObserver())
		_, stats, err := congest.DetectCommunity(nw, 0, ccfg)
		if err != nil {
			return nil, fmt.Errorf("kmachine k=%d: %w", k, err)
		}
		res := sim.Results()
		measured.X = append(measured.X, float64(k))
		measured.Y = append(measured.Y, float64(res.Rounds))
		bound.X = append(bound.X, float64(k))
		bound.Y = append(bound.Y, kmachine.ConversionBound(
			stats.Metrics.Messages, stats.Metrics.Rounds, ppm.Graph.MaxDegree(), k, 1))
	}
	fig.Series = []Series{measured, bound}
	return fig, nil
}

// Baselines compares CDRW against Label Propagation and averaging dynamics
// on two-community PPM graphs across inter-community densities (§II
// discussion: LPA's guarantees require dense graphs; CDRW works near the
// connectivity threshold). All algorithms are scored with the best-match
// F-score so the comparison is seed-free.
func Baselines(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	s := 512
	if cfg.Quick {
		s = 128
	}
	sf := float64(s)
	lg := gen.Log2(s)
	qs := []struct {
		label string
		value float64
	}{
		{"0.1/n", 0.1 / sf},
		{"0.6/n", 0.6 / sf},
		{"logn/n", lg / sf},
	}
	fig := &Figure{
		Name:   "baselines",
		Title:  fmt.Sprintf("CDRW vs baselines, sparse two-block PPM (block %d, p=2logn/n)", s),
		XLabel: "q-index",
		YLabel: "best-match F-score",
	}
	var cdrwS, lpaS, avgS Series
	cdrwS.Label = "CDRW"
	lpaS.Label = "LPA"
	avgS.Label = "averaging"
	for qi, q := range qs {
		gcfg := gen.PPMConfig{N: 2 * s, R: 2, P: 2 * lg / sf, Q: q.value}
		var fC, fL, fA float64
		for t := 0; t < cfg.Trials; t++ {
			seed := cfg.Seed + uint64(qi*97+t*7919)
			ppm, err := gen.NewPPM(gcfg, rng.New(seed))
			if err != nil {
				return nil, err
			}
			truth := ppm.TruthCommunities()

			res, err := core.Detect(ppm.Graph,
				core.WithDelta(gcfg.ExpectedConductance()), core.WithSeed(seed+1),
				core.WithEngine(cfg.Engine), core.WithCommunityEstimate(gcfg.R))
			if err != nil {
				return nil, fmt.Errorf("baselines CDRW q=%s: %w", q.label, err)
			}
			if qi == 0 && t == 0 {
				fig.stamp(gcfg.N,
					core.WithDelta(gcfg.ExpectedConductance()), core.WithSeed(seed+1),
					core.WithEngine(cfg.Engine), core.WithCommunityEstimate(gcfg.R))
			}
			raw := make([][]int, 0, len(res.Detections))
			for _, det := range res.Detections {
				raw = append(raw, det.Raw)
			}
			f, err := metrics.BestMatchFScore(raw, truth)
			if err != nil {
				return nil, err
			}
			fC += f

			lpa, err := baseline.LPA(ppm.Graph, baseline.LPAConfig{Seed: seed + 2})
			if err != nil {
				return nil, fmt.Errorf("baselines LPA q=%s: %w", q.label, err)
			}
			f, err = metrics.BestMatchFScore(lpa.Communities(), truth)
			if err != nil {
				return nil, err
			}
			fL += f

			avg, err := baseline.Averaging(ppm.Graph, baseline.AveragingConfig{Seed: seed + 3})
			if err != nil {
				return nil, fmt.Errorf("baselines averaging q=%s: %w", q.label, err)
			}
			f, err = metrics.BestMatchFScore(avg.Communities(), truth)
			if err != nil {
				return nil, err
			}
			fA += f
		}
		tr := float64(cfg.Trials)
		cdrwS.X = append(cdrwS.X, float64(qi))
		cdrwS.Y = append(cdrwS.Y, fC/tr)
		lpaS.X = append(lpaS.X, float64(qi))
		lpaS.Y = append(lpaS.Y, fL/tr)
		avgS.X = append(avgS.X, float64(qi))
		avgS.Y = append(avgS.Y, fA/tr)
	}
	fig.Series = []Series{cdrwS, lpaS, avgS}
	return fig, nil
}
