package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
	"cdrw/internal/serve"
	"cdrw/internal/trace"
)

// layerUnits names every per-layer metric of the traced run with its unit.
// Every traced run reports all of them; a layer the workload does not run
// reports 0.
var layerUnits = map[string]string{
	"rw.step_us":                   "us",
	"rw.sweep_us":                  "us",
	"rw.steps_per_op":              "count",
	"rw.sizes_checked_per_op":      "count",
	"rw.dense_step_frac":           "ratio",
	"rw.index_build_ms":            "ms",
	"rw.index_delta_ms":            "ms",
	"core.detect_community_ms":     "ms",
	"core.self_ms":                 "ms",
	"core.reverify_ms":             "ms",
	"serve.pool_self_ms":           "ms",
	"serve.pool_waits_per_op":      "count",
	"serve.pool_build_ms":          "ms",
	"serve.registry_hit_us":        "us",
	"serve.registry_miss_self_ms":  "ms",
	"serve.cache_hit_ratio":        "ratio",
	"serve.delta_swap_ms":          "ms",
	"serve.delta_lines_kept":       "count",
	"serve.delta_lines_reverified": "count",
	"serve.delta_lines_evicted":    "count",
	"serve.write_p50_ms":           "ms",
	"serve.http_self_us":           "us",
	"serve.response_kb":            "KB",
	"socket.rtt_us":                "us",
	"graph.apply_delta_ms":         "ms",
	"gen.ppm_s":                    "s",
	"congest.detect_community_ms":  "ms",
	"congest.rounds_per_op":        "count",
	"congest.messages_per_op":      "count",
	"cluster.detect_community_ms":  "ms",
	"cluster.wire_self_ms":         "ms",
	"cluster.flood_rounds_per_op":  "count",
	"cluster.link_words_per_op":    "count",
	"cluster.link_bytes_per_op":    "bytes",
	"cluster.bytes_per_word":       "bytes",
	"cluster.max_link_words":       "count",
	"cluster.coord_bytes_per_op":   "bytes",
	"cluster.round_freeze_us":      "us",
	"cluster.round_pull_us":        "us",
	"cluster.round_gather_us":      "us",
	"cluster.pull_retries":         "count",
	"trace.walk_ms":                "ms",
	"trace.sweep_ms":               "ms",
	"trace.flood_ms":               "ms",
	"trace.peer_pull_ms":           "ms",
	"trace.cache_ms":               "ms",
	"trace.overhead_pct":           "%",
	"runtime.alloc_kb_per_op":      "KB",
	"runtime.gc_per_op":            "count",
}

// counters is a point-in-time read of the counters the program exports.
type counters struct {
	serve metrics.ServeSnapshot
	// rounds, words and bytes sum the cluster wire counters over shards;
	// maxWords is the largest per-round link load any shard measured.
	rounds, words, bytes, maxWords int64
	// prom sums every shard's cdrw_cluster_* series from /metrics.
	prom  map[string]float64
	alloc uint64
	gcs   uint32
}

func snap(b *bench) (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{serve: b.m.Snapshot(), prom: make(map[string]float64), alloc: ms.TotalAlloc, gcs: ms.NumGC}
	for i, node := range b.nodes {
		wm := node.Metrics()
		c.rounds += wm.Rounds()
		c.words += wm.TotalLinkWords()
		c.bytes += wm.TotalLinkBytes()
		c.maxWords = max(c.maxWords, wm.MaxLinkWords())
		if err := scrape(b.client, b.urls[i], c.prom); err != nil {
			return c, err
		}
	}
	return c, nil
}

// scrape adds a shard's cdrw_cluster_* series from /metrics into sums.
func scrape(client *http.Client, url string, sums map[string]float64) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cdrw_cluster_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		sums[line[:i]] += v
	}
	return sc.Err()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// passCounts returns the exact counts of one pass over b's sequence: work
// per request the counters and answers report. They must repeat exactly
// for a seed.
func passCounts(b *bench, c0, c1 counters, calls int) map[string]float64 {
	n := int64(calls)
	hits := c1.serve.CacheHits - c0.serve.CacheHits
	misses := c1.serve.CacheMisses - c0.serve.CacheMisses
	deltas := c1.serve.DeltasApplied - c0.serve.DeltasApplied
	return map[string]float64{
		"rw.steps_per_op":              ratio(b.walkSteps.Load(), n),
		"rw.sizes_checked_per_op":      ratio(b.ladderSizes.Load(), n),
		"serve.cache_hit_ratio":        ratio(hits, hits+misses),
		"serve.delta_lines_kept":       ratio(c1.serve.DeltaLinesKept-c0.serve.DeltaLinesKept, deltas),
		"serve.delta_lines_reverified": ratio(c1.serve.DeltaLinesReverified-c0.serve.DeltaLinesReverified, deltas),
		"serve.delta_lines_evicted":    ratio(c1.serve.DeltaLinesEvicted-c0.serve.DeltaLinesEvicted, deltas),
		"cluster.flood_rounds_per_op":  ratio(c1.rounds-c0.rounds, n),
		"cluster.link_words_per_op":    ratio(c1.words-c0.words, n),
	}
}

// tracePhases reads the flight recorder of the loaded shard and returns the
// per-request median of each phase over the traced pass's requests.
func tracePhases(b *bench) (map[string]float64, int, error) {
	resp, err := b.client.Get(b.base + "/debug/traces")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Traces []struct {
			ID           string             `json:"id"`
			PhaseSeconds map[string]float64 `json:"phase_seconds"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64)
	n := 0
	for _, ph := range []string{"walk", "sweep", "flood", "peer_pull", "cache"} {
		var xs []float64
		for _, t := range body.Traces {
			if strings.HasPrefix(t.ID, "pb") {
				xs = append(xs, t.PhaseSeconds[ph]*1e3)
			}
		}
		n = len(xs)
		out["trace."+ph+"_ms"] = median(xs)
	}
	return out, n, nil
}

// runTraced runs the workload's sequence twice, each on a fresh set-up:
// plainly, then with the step observer and a request ID per call, and
// reports the per-layer ledger. The two passes must agree on every exact
// count.
func runTraced(w workload, o options) (report, error) {
	p := params{seed: o.seed, seconds: o.seconds, toy: o.toy}
	a, _, err := setUp(w, p, 1)
	if err != nil {
		return report{}, err
	}
	a0, err := snap(a)
	if err != nil {
		a.close()
		return report{}, err
	}
	resA := drive(a.base, a.clients, a.seq, false, a.check)
	a1, err := snap(a)
	if err != nil {
		a.close()
		return report{}, err
	}
	countsA := passCounts(a, a0, a1, len(a.seq))
	mismA, err := a.verify()
	a.close()
	if err != nil {
		return report{}, fmt.Errorf("verify: %w", err)
	}

	p.traced = true
	b, _, err := setUp(w, p, 1)
	if err != nil {
		return report{}, err
	}
	defer b.close()
	b.steps.take() // the set-up's own steps are not the pass's
	b0, err := snap(b)
	if err != nil {
		return report{}, err
	}
	resB := drive(b.base, b.clients, b.seq, true, b.check)
	b1, err := snap(b)
	if err != nil {
		return report{}, err
	}
	stepNS, _, dense := b.steps.take()
	phases, traces, err := tracePhases(b)
	if err != nil {
		return report{}, err
	}
	mismB, err := b.verify()
	if err != nil {
		return report{}, fmt.Errorf("verify: %w", err)
	}
	_, writesB := resB.split(b.seq)
	countsB := passCounts(b, b0, b1, len(b.seq))
	probe, probeCounts, err := probeLayers(b, o)
	if err != nil {
		return report{}, fmt.Errorf("layer probes: %w", err)
	}

	var problems []string
	if err := sameCounts("the plain pass", countsA, "the traced pass", countsB); err != nil {
		problems = append(problems, err.Error())
	}
	if int64(len(stepNS)) != b.walkSteps.Load() {
		problems = append(problems, fmt.Sprintf("determinism: the step observer saw %d steps, the answers report %d", len(stepNS), b.walkSteps.Load()))
	}
	exact := make(map[string]float64, len(countsB)+len(probeCounts))
	for k, v := range countsB {
		exact[k] = v
	}
	for k, v := range probeCounts {
		exact[k] = v
	}
	if err := checkLedger(o, exact); err != nil {
		problems = append(problems, err.Error())
	}

	n := int64(len(b.seq))
	d := func(name string) float64 { return b1.prom[name] - b0.prom[name] }
	stage := func(s string) float64 {
		sel := `{stage="` + s + `"}`
		if cnt := d("cdrw_cluster_round_seconds_count" + sel); cnt > 0 {
			return d("cdrw_cluster_round_seconds_sum"+sel) / cnt * 1e6
		}
		return 0
	}
	vals := map[string]float64{
		"rw.dense_step_frac":          ratio(int64(dense), int64(len(stepNS))),
		"serve.pool_waits_per_op":     ratio(b1.serve.PoolWaits-b0.serve.PoolWaits, n),
		"serve.write_p50_ms":          quantile(writesB, 0.5),
		"serve.response_kb":           float64(resB.respBytes) / float64(n) / 1024,
		"cluster.link_bytes_per_op":   ratio(b1.bytes-b0.bytes, n),
		"cluster.bytes_per_word":      ratio(b1.bytes-b0.bytes, b1.words-b0.words),
		"cluster.max_link_words":      float64(b1.maxWords),
		"cluster.coord_bytes_per_op":  d("cdrw_cluster_coord_bytes_total") / float64(n),
		"cluster.round_freeze_us":     stage("freeze"),
		"cluster.round_pull_us":       stage("pull"),
		"cluster.round_gather_us":     stage("gather"),
		"cluster.pull_retries":        d("cdrw_cluster_pull_retries_total"),
		"runtime.alloc_kb_per_op":     float64(b1.alloc-b0.alloc) / float64(n) / 1024,
		"runtime.gc_per_op":           float64(b1.gcs-b0.gcs) / float64(n),
		"rw.steps_per_op":             ratio(int64(len(stepNS)), n),
		"rw.sizes_checked_per_op":     countsB["rw.sizes_checked_per_op"],
		"serve.cache_hit_ratio":       countsB["serve.cache_hit_ratio"],
		"cluster.flood_rounds_per_op": countsB["cluster.flood_rounds_per_op"],
		"cluster.link_words_per_op":   countsB["cluster.link_words_per_op"],
	}
	for _, k := range []string{"serve.delta_lines_kept", "serve.delta_lines_reverified", "serve.delta_lines_evicted"} {
		vals[k] = countsB[k]
	}
	for _, src := range []map[string]float64{phases, probe, probeCounts} {
		for k, v := range src {
			vals[k] = v
		}
	}
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v, ok := vals[name]
		if !ok {
			return report{}, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		m[name] = metric{v, unit}
	}

	failed := resA.failed + resB.failed + mismA + mismB
	attempted := len(a.seq) + len(b.seq)
	detail := map[string]any{
		"error_ratio":       float64(failed) / float64(attempted),
		"traces":            traces,
		"exact_counts":      exact,
		"problems":          problems,
		"failures":          append(resA.failures, resB.failures...),
		"verify_mismatches": mismA + mismB,
		"carried_answers":   b.carried,
	}
	return report{
		result: result{Correct: failed == 0 && len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m},
		detail: detail,
	}, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// probeSeeds returns k distinct probe seeds — the sequence's own seeds
// first, then vertices in a seeded order — and one further seed for
// warm-up calls.
func probeSeeds(b *bench, seed uint64, k int) ([]int, int) {
	var cands []int
	for _, c := range b.seq {
		if c.seed >= 0 {
			cands = append(cands, c.seed)
		}
	}
	cands = append(cands, rng.New(seed^saltSeeds).Perm(b.g.NumVertices())...)
	var out []int
	used := make(map[int]bool)
	for _, s := range cands {
		if used[s] {
			continue
		}
		used[s] = true
		if len(out) == k {
			return out, s
		}
		out = append(out, s)
	}
	return out, out[0]
}

// line is one probe detection, kept for the re-verification probe.
type line struct {
	community []int
	stats     core.CommunityStats
}

// probeLayers times each layer's public entry point directly on the
// workload's graph and seeds. A layer's self time is its median minus the
// median of the layer below on the same inputs. It also returns the CONGEST
// counts, which must repeat exactly across repetitions.
func probeLayers(b *bench, o options) (map[string]float64, map[string]float64, error) {
	ctx := context.Background()
	reps, nSeeds, nHits := 3, 8, 200
	if o.toy {
		reps, nSeeds, nHits = 1, 2, 5
	}
	seeds, warm := probeSeeds(b, o.seed, nSeeds)
	out := make(map[string]float64)

	// internal/gen and the shared index bundle.
	var genS, idxMs []float64
	for range reps {
		t0 := time.Now()
		if _, err := gen.NewPPM(b.ppm, rng.New(graphSeed)); err != nil {
			return nil, nil, err
		}
		genS = append(genS, time.Since(t0).Seconds())
		t0 = time.Now()
		rw.NewSharedIndex(b.g).Warm()
		idxMs = append(idxMs, msSince(t0))
	}
	out["gen.ppm_s"] = median(genS)
	out["rw.index_build_ms"] = median(idxMs)
	ix := rw.NewSharedIndex(b.g).Warm()

	// internal/core over internal/rw: a warmed detector with a step observer.
	steps := &stepLog{}
	det, err := core.NewDetector(b.g, core.WithSharedIndex(ix), core.WithStepObserver(steps.observe))
	if err != nil {
		return nil, nil, err
	}
	det.Warm()
	if _, _, err := det.DetectCommunity(ctx, warm); err != nil {
		return nil, nil, err
	}
	steps.take()
	var coreMs, rwMs, stepNS, sweepNS []float64
	lines := make(map[int]line)
	for range reps {
		for _, s := range seeds {
			t0 := time.Now()
			comm, st, err := det.DetectCommunity(ctx, s)
			el := msSince(t0)
			if err != nil {
				return nil, nil, err
			}
			stp, swp, _ := steps.take()
			coreMs = append(coreMs, el)
			rwMs = append(rwMs, (sum(stp)+sum(swp))/1e6)
			stepNS = append(stepNS, stp...)
			sweepNS = append(sweepNS, swp...)
			lines[s] = line{slices.Clone(comm), st}
		}
	}
	coreMed := median(coreMs)
	out["core.detect_community_ms"] = coreMed
	out["core.self_ms"] = coreMed - median(rwMs)
	out["rw.step_us"] = median(stepNS) / 1e3
	out["rw.sweep_us"] = median(sweepNS) / 1e3

	// internal/trace: the serving stack traces every request, so tracing is
	// switched off only here. A detector without the step observer (which
	// times every step whether or not a request is traced) detects each
	// seed under a cancellable context with a request trace and without
	// one, alternating which goes first; the overhead is the median of the
	// paired ratios.
	plain, err := core.NewDetector(b.g, core.WithSharedIndex(ix))
	if err != nil {
		return nil, nil, err
	}
	plain.Warm()
	if _, _, err := plain.DetectCommunity(ctx, warm); err != nil {
		return nil, nil, err
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var traceRatios []float64
	for rep := range reps {
		for i, s := range seeds {
			var el [2]float64 // untraced, traced
			for j := range 2 {
				on := (rep + i + j) % 2
				c := reqCtx
				if on == 1 {
					c = trace.NewContext(reqCtx, trace.New(trace.NewID(), "probe"))
				}
				t0 := time.Now()
				if _, _, err := plain.DetectCommunity(c, s); err != nil {
					return nil, nil, err
				}
				el[on] = msSince(t0)
			}
			traceRatios = append(traceRatios, el[1]/el[0])
		}
	}
	out["trace.overhead_pct"] = (median(traceRatios) - 1) * 100

	// internal/serve pool: build, then pooled single-seed detections.
	var buildMs, poolMs []float64
	var pool *serve.DetectorPool
	for range reps {
		t0 := time.Now()
		if pool, err = serve.NewDetectorPoolWithIndex(b.g, 1, ix); err != nil {
			return nil, nil, err
		}
		buildMs = append(buildMs, msSince(t0))
	}
	if _, _, err := pool.DetectCommunity(ctx, warm); err != nil {
		return nil, nil, err
	}
	for range reps {
		for _, s := range seeds {
			t0 := time.Now()
			if _, _, err := pool.DetectCommunity(ctx, s); err != nil {
				return nil, nil, err
			}
			poolMs = append(poolMs, msSince(t0))
		}
	}
	poolMed := median(poolMs)
	out["serve.pool_build_ms"] = median(buildMs)
	out["serve.pool_self_ms"] = poolMed - coreMed

	// internal/serve registry misses, one fresh registry per repetition.
	var missMs []float64
	var reg *serve.Registry
	for range reps {
		reg = serve.NewRegistry(1, nil)
		if err := reg.Register("g", b.g); err != nil {
			return nil, nil, err
		}
		if _, _, _, err := reg.DetectCommunity(ctx, "g", warm); err != nil {
			return nil, nil, err
		}
		for _, s := range seeds {
			t0 := time.Now()
			if _, _, _, err := reg.DetectCommunity(ctx, "g", s); err != nil {
				return nil, nil, err
			}
			missMs = append(missMs, msSince(t0))
		}
	}
	out["serve.registry_miss_self_ms"] = median(missMs) - poolMed

	// Hits of the workload's read shape: the live registry in-process, its
	// handler through httptest, and the loopback socket.
	if _, err := b.do(b.hit); err != nil {
		return nil, nil, fmt.Errorf("priming the hit probe: %w", err)
	}
	var hitUs, handUs, sockUs []float64
	for range nHits {
		t0 := time.Now()
		var cached bool
		if b.hit.seed < 0 {
			_, _, cached, err = b.reg.Detect(ctx, "g")
		} else {
			_, _, cached, err = b.reg.DetectCommunity(ctx, "g", b.hit.seed)
		}
		hitUs = append(hitUs, msSince(t0)*1e3)
		if err != nil || !cached {
			return nil, nil, fmt.Errorf("registry hit probe: cached=%v err=%v", cached, err)
		}
	}
	for range nHits {
		req := httptest.NewRequest(b.hit.method, b.hit.path, bytes.NewReader(b.hit.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		b.handler.ServeHTTP(rec, req)
		handUs = append(handUs, msSince(t0)*1e3)
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("handler probe: status %d", rec.Code)
		}
	}
	for range nHits {
		t0 := time.Now()
		if _, err := b.do(b.hit); err != nil {
			return nil, nil, err
		}
		sockUs = append(sockUs, msSince(t0)*1e3)
	}
	hitMed, handMed := median(hitUs), median(handUs)
	out["serve.registry_hit_us"] = hitMed
	out["serve.http_self_us"] = handMed - hitMed
	out["socket.rtt_us"] = median(sockUs) - handMed

	// internal/graph and the index delta, on the workload's edge batch.
	touched := make([]int, 0, 2*len(b.batch))
	for _, e := range b.batch {
		touched = append(touched, e.U, e.V)
	}
	var applyMs, idxDeltaMs []float64
	var g1 *graph.Graph
	for range reps {
		t0 := time.Now()
		if g1, err = b.g.ApplyDelta(b.batch, nil); err != nil {
			return nil, nil, err
		}
		applyMs = append(applyMs, msSince(t0))
		t0 = time.Now()
		rw.NewSharedIndexDelta(g1, ix, touched)
		idxDeltaMs = append(idxDeltaMs, msSince(t0))
	}
	out["graph.apply_delta_ms"] = median(applyMs)
	out["rw.index_delta_ms"] = median(idxDeltaMs)

	// core re-verification of the probe communities on the mutated graph.
	rdet, err := core.NewDetector(g1)
	if err != nil {
		return nil, nil, err
	}
	rdet.Warm()
	var revMs []float64
	for rep := 0; rep <= reps; rep++ { // repetition 0 warms the engine
		for _, s := range seeds {
			l := lines[s]
			if l.stats.FrozenAt == 0 {
				continue
			}
			t0 := time.Now()
			if _, err := rdet.ReverifyCommunity(ctx, s, l.community, l.stats.FrozenAt); err != nil {
				return nil, nil, err
			}
			if rep > 0 {
				revMs = append(revMs, msSince(t0))
			}
		}
	}
	out["core.reverify_ms"] = median(revMs)

	// Registry generation swaps: the last probe registry holds a cache line
	// per probe seed; each repetition adds the batch and deletes it again.
	var swapMs []float64
	for range reps {
		for _, del := range []bool{false, true} {
			adds, dels := b.batch, []graph.Edge(nil)
			if del {
				adds, dels = nil, b.batch
			}
			st, err := reg.ApplyDelta(ctx, "g", adds, dels)
			if err != nil {
				return nil, nil, err
			}
			swapMs = append(swapMs, float64(st.SwapDuration)/float64(time.Millisecond))
		}
	}
	out["serve.delta_swap_ms"] = median(swapMs)

	counts := map[string]float64{"congest.rounds_per_op": 0, "congest.messages_per_op": 0}
	for _, k := range []string{"congest.detect_community_ms", "cluster.detect_community_ms", "cluster.wire_self_ms"} {
		out[k] = 0
	}
	if len(b.nodes) == 0 {
		return out, counts, nil
	}

	// internal/congest in-process, then the same seeds through the cluster
	// driver on the loaded shard.
	cdet, err := core.NewDetector(b.g, core.WithEngine(core.EngineCongest))
	if err != nil {
		return nil, nil, err
	}
	cdet.Warm()
	if _, _, err := cdet.DetectCommunity(ctx, warm); err != nil {
		return nil, nil, err
	}
	var congestMs, clusterMs []float64
	var rounds, messages int64
	first := make(map[int][2]int64)
	for rep := range reps {
		for _, s := range seeds {
			t0 := time.Now()
			if _, _, err := cdet.DetectCommunity(ctx, s); err != nil {
				return nil, nil, err
			}
			congestMs = append(congestMs, msSince(t0))
			cm, _ := cdet.CongestMetrics()
			got := [2]int64{int64(cm.Rounds), cm.Messages}
			if rep == 0 {
				first[s] = got
				rounds += got[0]
				messages += got[1]
			} else if got != first[s] {
				return nil, nil, fmt.Errorf("determinism: seed %d took %v CONGEST rounds/messages, earlier %v", s, got, first[s])
			}
		}
	}
	counts["congest.rounds_per_op"] = float64(rounds) / float64(len(seeds))
	counts["congest.messages_per_op"] = float64(messages) / float64(len(seeds))
	for range reps {
		for _, s := range seeds {
			t0 := time.Now()
			_, _, _, handled, err := b.nodes[0].DetectCommunity(ctx, "g", s, core.WithEngine(core.EngineCongest))
			if err != nil || !handled {
				return nil, nil, fmt.Errorf("cluster probe: handled=%v err=%v", handled, err)
			}
			clusterMs = append(clusterMs, msSince(t0))
		}
	}
	congestMed, clusterMed := median(congestMs), median(clusterMs)
	out["congest.detect_community_ms"] = congestMed
	out["cluster.detect_community_ms"] = clusterMed
	out["cluster.wire_self_ms"] = clusterMed - congestMed
	return out, counts, nil
}
