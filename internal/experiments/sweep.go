package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// WriteJSON renders the figure as one JSON document: figure metadata — the
// detection engine and the resolved option fingerprint, so records from
// different engines or option sets stay distinguishable — plus the series
// as parallel x/y arrays. Benchmark tooling ingests these trajectories
// (e.g. the sweep-mode figure) to attribute per-step wins.
func (f *Figure) WriteJSON(w io.Writer) error {
	type series struct {
		Label string    `json:"label"`
		X     []float64 `json:"x"`
		Y     []float64 `json:"y"`
	}
	doc := struct {
		Name    string   `json:"name"`
		Title   string   `json:"title"`
		Engine  string   `json:"engine,omitempty"`
		Options string   `json:"options,omitempty"`
		XLabel  string   `json:"xlabel"`
		YLabel  string   `json:"ylabel"`
		Series  []series `json:"series"`
	}{Name: f.Name, Title: f.Title, Engine: f.Engine, Options: f.Options, XLabel: f.XLabel, YLabel: f.YLabel}
	for _, s := range f.Series {
		doc.Series = append(doc.Series, series{Label: s.Label, X: s.X, Y: s.Y})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SweepTrajectory traces one community detection step by step on a sparse
// PPM in the regime the hybrid engine targets, recording for every walk
// length the support size, which sweep path evaluated the mixing-set ladder
// (1 = the sparse sweep over the engine's frontier, 0 = the dense path,
// which extracts the support with one O(n) scan first), and the wall time
// of the step and of the sweep in microseconds. It is the
// attribution companion to the walk/sweep benchmarks: the per-step series
// shows exactly where the sparse sweep is buying its speedup and where the
// engine hands over to the dense kernel. Trials are averaged pointwise
// (sweep mode is averaged too: a fractional value marks a length where only
// some trials were still sparse).
func SweepTrajectory(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	n := 100_000
	if cfg.Quick {
		n = 5_000
	}
	blocks := 10
	bs := float64(n / blocks)
	gcfg := gen.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0.2 / bs}

	fig := &Figure{
		Name:   "sweep",
		Title:  fmt.Sprintf("per-step sweep mode and timing, %d-block PPM (n=%d)", blocks, n),
		XLabel: "step",
		YLabel: "support / mode / us",
	}
	var supportS, modeS, stepS, sweepS Series
	supportS.Label = "support"
	modeS.Label = "sparse-sweep"
	stepS.Label = "step-us"
	sweepS.Label = "sweep-us"

	type acc struct {
		support, mode, stepUS, sweepUS float64
		trials                         float64
	}
	var trace []acc
	for t := 0; t < cfg.Trials; t++ {
		seed := cfg.Seed + uint64(t*7919)
		ppm, err := gen.NewPPM(gcfg, rng.New(seed))
		if err != nil {
			return nil, fmt.Errorf("sweep trajectory: %w", err)
		}
		source := int(seed % uint64(n))
		_, _, err = core.DetectCommunity(ppm.Graph, source,
			core.WithDelta(ppm.Config.ExpectedConductance()),
			core.WithStepObserver(func(st core.StepTiming) {
				for len(trace) < st.Step {
					trace = append(trace, acc{})
				}
				a := &trace[st.Step-1]
				if st.Support >= 0 {
					a.support += float64(st.Support)
				} else {
					a.support += float64(n) // dense kernel: support is the whole graph
				}
				if st.SparseSweep {
					a.mode++
				}
				a.stepUS += float64(st.StepNS) / 1e3
				a.sweepUS += float64(st.SweepNS) / 1e3
				a.trials++
			}))
		if err != nil {
			return nil, fmt.Errorf("sweep trajectory: %w", err)
		}
	}
	for i, a := range trace {
		if a.trials == 0 {
			continue
		}
		x := float64(i + 1)
		supportS.X = append(supportS.X, x)
		supportS.Y = append(supportS.Y, a.support/a.trials)
		modeS.X = append(modeS.X, x)
		modeS.Y = append(modeS.Y, a.mode/a.trials)
		stepS.X = append(stepS.X, x)
		stepS.Y = append(stepS.Y, a.stepUS/a.trials)
		sweepS.X = append(sweepS.X, x)
		sweepS.Y = append(sweepS.Y, a.sweepUS/a.trials)
	}
	fig.Series = []Series{supportS, modeS, stepS, sweepS}
	// The step observer is an in-memory diagnostic, so this figure always
	// runs the reference engine regardless of Config.Engine.
	fig.stamp(n, core.WithDelta(gcfg.ExpectedConductance()))
	return fig, nil
}
