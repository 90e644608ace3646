package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at toy size, untraced and traced: every
// request must be answered correctly, and each mode must emit exactly the
// metrics BENCHMARK.json names for it, each with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	state := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: traced, toy: true, stateDir: state}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || rep.detail["error_ratio"] != 0.0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d detail=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.detail)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestLedgerRepeats runs one traced toy workload twice against one ledger:
// the second run must find the first run's exact counts and agree.
func TestLedgerRepeats(t *testing.T) {
	o := options{workload: "mutate-read", seed: 5, seconds: 1, trace: true, toy: true, stateDir: t.TempDir()}
	for i := range 2 {
		rep, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.result.Correct {
			t.Fatalf("run %d: %v", i, rep.detail["problems"])
		}
	}
}

// TestEmitShape checks the result line has exactly its four keys.
func TestEmitShape(t *testing.T) {
	var buf bytes.Buffer
	rep := report{
		result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {0.5, "s"}}},
		detail: map[string]any{},
	}
	if err := emit(&buf, options{workload: "x"}, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
}
