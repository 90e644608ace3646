// Command perfbench is the repository's end-to-end benchmark. It mounts the
// CDRW serving stack in-process through its public packages — serve handlers
// and cluster nodes on loopback listeners — drives one named workload as a
// closed loop over a fixed, seed-derived request sequence, checks every
// response, and prints one JSON result line.
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same sequence runs twice, plainly and then with a step observer and
// request IDs, and the result carries the per-layer ledger: counters the
// program exports, plus each layer's public entry point timed directly on
// the workload's inputs.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload community-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	commit   string
	// stateDir holds the cross-run exact-count ledger ("" disables it).
	stateDir string
	toy      bool
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median, and the last set-up serves the timed pass.
const setupReps = 3

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus the detail line printed before it.
type report struct {
	result result
	detail map[string]any
}

func main() {
	var o options
	var traceFlag int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal timed seconds; each workload's request count scales with it")
	flag.IntVar(&traceFlag, "trace", 0, "0 prints end-to-end metrics, 1 the per-layer ledger")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for the environment block")
	flag.StringVar(&o.stateDir, "state-dir", "", "directory of the cross-run exact-count ledger")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds < 1 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	o.trace = traceFlag == 1
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	if err := emit(os.Stdout, o, rep); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload run.
func run(o options) (report, error) {
	for _, w := range workloads {
		if w.name == o.workload {
			if o.trace {
				return runTraced(w, o)
			}
			return runEndToEnd(w, o)
		}
	}
	return report{}, fmt.Errorf("unknown workload %q", o.workload)
}

// emit writes the environment-and-detail line, then the result line.
func emit(w io.Writer, o options, rep report) error {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"cpu":        cpuModel(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	head, err := json.Marshal(map[string]any{"env": env, "detail": rep.detail})
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", head, last)
	return err
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setUp builds the workload's set-up reps times, keeping the last one, and
// returns it with every set-up's duration in seconds. A set-up ends with a
// collection, so its garbage is not collected inside the timed phase.
func setUp(w workload, p params, reps int) (*bench, []float64, error) {
	var (
		b     *bench
		times []float64
	)
	for range reps {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runtime.GC()
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, times, nil
}

// runEndToEnd measures the end-to-end metrics: set-up, one timed closed-loop
// pass, response verification, then the live heap.
func runEndToEnd(w workload, o options) (report, error) {
	reps := setupReps
	if o.toy {
		reps = 1
	}
	b, setups, err := setUp(w, params{seed: o.seed, seconds: o.seconds, toy: o.toy}, reps)
	if err != nil {
		return report{}, err
	}
	defer b.close()

	res := drive(b.base, b.clients, b.seq, false, b.check)
	mismatches, err := b.verify()
	if err != nil {
		return report{}, fmt.Errorf("verify: %w", err)
	}
	reads, writes := res.split(b.seq)
	attempted := len(b.seq)
	failed := res.failed + mismatches

	// Release the load generator's buffers before reading the live heap, so
	// it holds only what the serving stack retains.
	b.seq, b.check, b.verify, res.lat = nil, nil, nil, nil
	heapMB := liveHeapMB()
	runtime.KeepAlive(b)

	m := map[string]metric{
		"latency_p50_ms": {quantile(reads, 0.50), "ms"},
		"latency_p95_ms": {quantile(reads, 0.95), "ms"},
		"throughput_rps": {float64(attempted-res.failed) / res.wall.Seconds(), "1/s"},
		"setup_s":        {median(setups), "s"},
		"heap_live_mb":   {heapMB, "MB"},
	}
	detail := map[string]any{
		"error_ratio":     float64(failed) / float64(attempted),
		"read_deciles_ms": deciles(reads),
		"reads":           len(reads),
		"writes":          len(writes),
		"write_p50_ms":    quantile(writes, 0.50),
		"beyond_p95":      beyond(len(reads), 0.95),
		"p95_valid":       beyond(len(reads), 0.95) >= 10,
		"setup_s_each":    setups,
		"wall_s":          res.wall.Seconds(),
		"verify_mismatch": mismatches,
		"carried_answers": b.carried,
		"failures":        res.failures,
	}
	return report{
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		detail: detail,
	}, nil
}

// deciles returns the 10th to 90th percentiles of sorted, in steps of 10.
func deciles(sorted []float64) []float64 {
	out := make([]float64, 0, 9)
	for q := 1; q <= 9; q++ {
		out = append(out, quantile(sorted, float64(q)/10))
	}
	return out
}

// liveHeapMB collects twice (the second drains sync.Pool victim caches)
// and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkLedger compares the run's exact counts with those an earlier run of
// the same binary, workload, seed and length recorded, recording them if
// none did. A difference is a determinism bug, not noise.
func checkLedger(o options, counts map[string]float64) error {
	if o.stateDir == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(o.stateDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%s.json", o.workload, o.seed, o.seconds, hex.EncodeToString(sum[:6])))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return err
	}
	return sameCounts("an earlier run", want, "this run", counts)
}

// sameCounts reports the first exact count that differs between a and b.
func sameCounts(aName string, a map[string]float64, bName string, b map[string]float64) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("determinism: %s = %v in %s but %v in %s", k, a[k], aName, b[k], bName)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("determinism: %s and %s count different things", aName, bName)
	}
	return nil
}
