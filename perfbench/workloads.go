package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cdrw/internal/cluster"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
	"cdrw/internal/serve"
)

// params selects one set-up of a workload.
type params struct {
	seed    uint64
	seconds int
	// traced installs the per-step observer on the registered graph.
	traced bool
	// toy shrinks graphs and sequences to a handful of requests (smoke test).
	toy bool
}

// workload names one benchmark workload and builds its set-up.
type workload struct {
	name  string
	setup func(p params) (*bench, error)
}

var workloads = []workload{
	{"community-cold", setupCommunityCold},
	{"detect-hot", setupDetectHot},
	{"cluster-congest", setupClusterCongest},
	{"mutate-read", setupMutateRead},
}

// Salts derive independent generator streams from the one workload seed.
const (
	saltSeeds = 0x9e3779b97f4a7c15
	saltBatch = 0xbf58476d1ce4e5b9
)

// batchEdges is the size of every edge delta: mutate-read's writes and the
// graph-layer probes.
const batchEdges = 4

// bench is one set-up of a workload: a live serving stack on loopback
// listeners plus the fixed request sequence it is driven with.
type bench struct {
	clients int
	seq     []call

	// base is the URL of the shard that takes the load; handler, reg and m
	// are that shard's, for in-process probes and counters.
	base    string
	handler http.Handler
	reg     *serve.Registry
	m       *metrics.ServeMetrics
	// nodes and urls list every cluster shard (cluster-congest only).
	nodes []*cluster.Node
	urls  []string
	// client issues set-up and probe requests.
	client *http.Client

	ppm gen.PPMConfig
	g   *graph.Graph
	// steps logs every walk step of the registered graph's detectors on a
	// traced set-up (nil otherwise).
	steps *stepLog
	// hit is a request of the workload's read shape that the serving
	// registry answers from its cache once it has been issued.
	hit call
	// batch is a delta of edges inside one block: mutate-read's first write,
	// and the graph-layer probes' input on every workload.
	batch []graph.Edge

	// check inspects every timed response; verify re-derives answers outside
	// the timed phase and returns how many disagreed.
	check  checkFunc
	verify func() (mismatches int, err error)

	// walkSteps and ladderSizes sum walk_length and sizes_checked over the
	// uncached reference-engine answers a pass received.
	walkSteps, ladderSizes atomic.Int64
	// carried counts cached answers that equal the seed's fresh detection on
	// another graph state than the one read (mutate-read only).
	carried int

	stops []func()
}

// ppmFamily is the workloads' planted-partition family: p = 2·log₂(b)/b and
// q = 0.1/b with block size b = n/r.
func ppmFamily(n, r int) gen.PPMConfig {
	b := float64(n / r)
	return gen.PPMConfig{N: n, R: r, P: 2 * math.Log2(b) / b, Q: 0.1 / b}
}

// graphSeed samples every workload's graph. The graph is a fixed fixture,
// so runs with different seeds load the same graph; the workload seed draws
// the traffic on it: which vertices are asked about, and in which order.
const graphSeed = 1

// newBench samples the workload's graph and its probe delta.
func newBench(p params, cfg gen.PPMConfig, clients int) (*bench, error) {
	ppm, err := gen.NewPPM(cfg, rng.New(graphSeed))
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{DisableCompression: true}
	b := &bench{
		clients: clients,
		client:  &http.Client{Transport: tr},
		ppm:     cfg,
		g:       ppm.Graph,
		m:       metrics.NewServeMetrics(),
	}
	b.stops = append(b.stops, tr.CloseIdleConnections)
	if p.traced {
		b.steps = &stepLog{}
	}
	b.batch = blockBatch(b.g, cfg, 0, rng.New(p.seed^saltBatch))
	return b, nil
}

// registered returns the options the graph is registered with: the step
// observer on a traced set-up, none otherwise.
func (b *bench) registered() []core.Option {
	if b.steps == nil {
		return nil
	}
	return []core.Option{core.WithStepObserver(b.steps.observe)}
}

// serve mounts h on ln until the bench closes.
func (b *bench) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	b.stops = append(b.stops, func() {
		_ = srv.Close()
		<-done
	})
}

// close stops every server, node and connection of the set-up, newest first.
func (b *bench) close() {
	for i := len(b.stops) - 1; i >= 0; i-- {
		b.stops[i]()
	}
	b.stops = nil
}

// startSingle registers the graph on a single-process serving stack with
// pools of poolSize handles, warms its default pool and starts listening.
func (b *bench) startSingle(poolSize int) error {
	b.reg = serve.NewRegistry(poolSize, b.m)
	if err := b.reg.Register("g", b.g, b.registered()...); err != nil {
		return err
	}
	if _, _, _, err := b.reg.Pool("g"); err != nil {
		return err
	}
	b.handler = serve.NewHandler(b.reg, b.m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.base = "http://" + ln.Addr().String()
	b.serve(ln, b.handler)
	return nil
}

// do issues one untimed request to the loaded shard and returns its body.
func (b *bench) do(c call) ([]byte, error) {
	var buf bytes.Buffer
	_, _, err := send(b.client, b.base, &c, false, 0, &buf)
	return buf.Bytes(), err
}

// stepLog aggregates the reference engine's per-step observations
// (core.WithStepObserver) across every pooled handle.
type stepLog struct {
	mu      sync.Mutex
	stepNS  []float64
	sweepNS []float64
	dense   int
}

func (l *stepLog) observe(st core.StepTiming) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stepNS = append(l.stepNS, float64(st.StepNS))
	l.sweepNS = append(l.sweepNS, float64(st.SweepNS))
	if st.Support < 0 {
		l.dense++
	}
}

// take returns the logged steps and empties the log.
func (l *stepLog) take() (stepNS, sweepNS []float64, dense int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stepNS, sweepNS, dense = l.stepNS, l.sweepNS, l.dense
	l.stepNS, l.sweepNS, l.dense = nil, nil, 0
	return stepNS, sweepNS, dense
}

// statsBody is core.CommunityStats as the community endpoint encodes it.
type statsBody struct {
	Seed         int  `json:"seed"`
	WalkLength   int  `json:"walk_length"`
	Stopped      bool `json:"stopped"`
	FinalSetSize int  `json:"final_set_size"`
	SizesChecked int  `json:"sizes_checked"`
	FrozenAt     int  `json:"frozen_at"`
}

func toStatsBody(s core.CommunityStats) statsBody {
	return statsBody{
		Seed: s.Seed, WalkLength: s.WalkLength, Stopped: s.Stopped,
		FinalSetSize: s.FinalSetSize, SizesChecked: s.SizesChecked, FrozenAt: s.FrozenAt,
	}
}

// communityBody is the community endpoint's answer.
type communityBody struct {
	Cached    bool      `json:"cached"`
	Community []int     `json:"community"`
	Stats     statsBody `json:"stats"`
}

// parseCommunity decodes a community answer and checks it is one for seed.
func parseCommunity(body []byte, seed int) (communityBody, error) {
	var cb communityBody
	if err := json.Unmarshal(body, &cb); err != nil {
		return cb, fmt.Errorf("seed %d: %w", seed, err)
	}
	if cb.Stats.Seed != seed {
		return cb, fmt.Errorf("seed %d: answer is for seed %d", seed, cb.Stats.Seed)
	}
	if _, ok := slices.BinarySearch(cb.Community, seed); !ok {
		return cb, fmt.Errorf("seed %d: community does not contain its seed", seed)
	}
	return cb, nil
}

// countWork adds an uncached reference-engine answer's walk to the pass
// totals.
func (b *bench) countWork(cb communityBody) {
	if !cb.Cached {
		b.walkSteps.Add(int64(cb.Stats.WalkLength))
		b.ladderSizes.Add(int64(cb.Stats.SizesChecked))
	}
}

// communityCall is a single-seed detection request; engine "" inherits the
// graph's engine.
func communityCall(seed int, engine string) call {
	body := fmt.Sprintf(`{"seed":%d}`, seed)
	if engine != "" {
		body = fmt.Sprintf(`{"seed":%d,"options":{"engine":%q}}`, seed, engine)
	}
	return call{method: http.MethodPost, path: "/graphs/g/community", body: []byte(body), seed: seed}
}

// patchCall adds (or deletes) a batch of edges in one PATCH.
func patchCall(edges []graph.Edge, del bool) call {
	op := "add"
	if del {
		op = "del"
	}
	var body bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&body, "{\"op\":%q,\"u\":%d,\"v\":%d}\n", op, e.U, e.V)
	}
	return call{method: http.MethodPatch, path: "/graphs/g/edges", body: body.Bytes(), write: true, seed: -1}
}

// blockBatch draws batchEdges distinct absent edges inside block blk.
func blockBatch(g *graph.Graph, cfg gen.PPMConfig, blk int, r *rng.RNG) []graph.Edge {
	size := cfg.BlockSize()
	base := blk * size
	seen := make(map[graph.Edge]bool)
	var out []graph.Edge
	for len(out) < batchEdges {
		u, v := base+r.Intn(size), base+r.Intn(size)
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		if u == v || g.HasEdge(u, v) || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// verifyCommunities recomputes each sampled answer on a fresh detector over
// g and counts the answers that differ in community or stats.
func verifyCommunities(g *graph.Graph, opts []core.Option, samples map[int]communityBody) (int, error) {
	d, err := core.NewDetector(g, opts...)
	if err != nil {
		return 0, err
	}
	seeds := make([]int, 0, len(samples))
	for s := range samples {
		seeds = append(seeds, s)
	}
	sort.Ints(seeds)
	bad := 0
	for _, s := range seeds {
		comm, stats, err := d.DetectCommunity(context.Background(), s)
		if err != nil {
			return bad, err
		}
		want := samples[s]
		if !slices.Equal(comm, want.Community) || toStatsBody(stats) != want.Stats {
			bad++
		}
	}
	return bad, nil
}

// setupCommunityCold: PPM n=2048, r=4 behind a pool of 2; every timed
// request asks for a distinct seed, so every one misses the cache.
func setupCommunityCold(p params) (*bench, error) {
	n, r, warm, count := 2048, 4, 32, p.seconds*120
	if p.toy {
		n, r, warm, count = 256, 2, 4, 8
	}
	b, err := newBench(p, ppmFamily(n, r), 2)
	if err != nil {
		return nil, err
	}
	perm := rng.New(p.seed ^ saltSeeds).Perm(n)
	for _, s := range perm[:min(count, n-warm)] {
		b.seq = append(b.seq, communityCall(s, ""))
	}
	if err := b.startSingle(2); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up seeds lie outside the timed sequence, so they cannot turn a
	// timed request into a hit.
	for _, s := range perm[n-warm:] {
		if _, err := b.do(communityCall(s, "")); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.hit = communityCall(perm[n-1], "")

	// Answers for seeds divisible by 32 are recomputed by a fresh detector
	// afterwards.
	var mu sync.Mutex
	samples := make(map[int]communityBody)
	b.check = func(c *call, body []byte) error {
		cb, err := parseCommunity(body, c.seed)
		if err != nil {
			return err
		}
		if cb.Cached {
			return fmt.Errorf("seed %d: cold seed answered from the cache", c.seed)
		}
		b.countWork(cb)
		if c.seed%32 == 0 {
			mu.Lock()
			samples[c.seed] = cb
			mu.Unlock()
		}
		return nil
	}
	b.verify = func() (int, error) { return verifyCommunities(b.g, nil, samples) }
	return b, nil
}

// detectBody is the detect endpoint's answer, reduced to what verify reads.
type detectBody struct {
	Cached     bool `json:"cached"`
	Detections []struct {
		Assigned []int `json:"assigned"`
	} `json:"detections"`
}

// setupDetectHot: PPM n=8192, r=8; one full detection fills the cache during
// set-up, then every timed request is the same cached full-run answer.
func setupDetectHot(p params) (*bench, error) {
	n, r, count := 8192, 8, p.seconds*1600
	if p.toy {
		n, r, count = 512, 4, 8
	}
	b, err := newBench(p, ppmFamily(n, r), 1)
	if err != nil {
		return nil, err
	}
	if err := b.startSingle(1); err != nil {
		b.close()
		return nil, err
	}
	detect := call{method: http.MethodPost, path: "/graphs/g/detect", body: []byte("{}"), seed: -1}
	var ref []byte
	for range 16 { // the first fills the cache, the rest warm the hit path
		if ref, err = b.do(detect); err != nil {
			b.close()
			return nil, fmt.Errorf("cache fill: %w", err)
		}
	}
	b.seq = make([]call, count)
	for i := range b.seq {
		b.seq[i] = detect
	}
	b.hit = detect
	b.check = func(_ *call, body []byte) error {
		if !bytes.Equal(body, ref) {
			return fmt.Errorf("body differs from the first cached answer")
		}
		return nil
	}
	b.verify = func() (int, error) {
		var db detectBody
		if err := json.Unmarshal(ref, &db); err != nil {
			return 0, err
		}
		if !db.Cached {
			return 1, nil
		}
		// The assigned sets of a full run partition the vertex set.
		seen := make([]bool, b.g.NumVertices())
		covered := 0
		for _, d := range db.Detections {
			for _, v := range d.Assigned {
				if v < 0 || v >= len(seen) || seen[v] {
					return 1, nil
				}
				seen[v] = true
				covered++
			}
		}
		if covered != len(seen) {
			return 1, nil
		}
		return 0, nil
	}
	return b, nil
}

// setupClusterCongest: three in-process shards on loopback listeners with
// full join lists, PPM n=600, r=3; every timed request is a CONGEST
// community detection for a distinct seed, sent to shard 0, which drives it
// over the cluster.
func setupClusterCongest(p params) (*bench, error) {
	const k = 3
	cfg := gen.PPMConfig{N: 600, R: 3, P: 0.05, Q: 0.002}
	// p95 needs at least ten samples beyond it, so at least 200 requests;
	// 32 a second give it 16 at ten seconds, which steadies it across runs.
	count, warm := max(p.seconds*32, 200), 4
	if p.toy {
		cfg = gen.PPMConfig{N: 90, R: 3, P: 0.2, Q: 0.01}
		count, warm = 6, 1
	}
	b, err := newBench(p, cfg, 1)
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			b.close()
			return nil, err
		}
		lns[i] = ln
		b.urls = append(b.urls, "http://"+ln.Addr().String())
	}
	for i := range k {
		m := b.m
		if i > 0 {
			m = metrics.NewServeMetrics()
		}
		reg := serve.NewRegistry(1, m)
		if err := reg.Register("g", b.g, b.registered()...); err != nil {
			b.close()
			return nil, err
		}
		node, err := cluster.New(reg, cluster.Config{Size: k, Advertise: b.urls[i], Join: b.urls, PlacementSeed: 1})
		if err != nil {
			b.close()
			return nil, err
		}
		h := serve.NewClusterHandler(reg, m, node)
		b.serve(lns[i], h)
		b.nodes = append(b.nodes, node)
		if i == 0 {
			b.reg, b.handler = reg, h
		}
	}
	// Nodes stop before the servers (close runs stops newest first).
	for _, node := range b.nodes {
		node.Start()
		b.stops = append(b.stops, node.Stop)
	}
	for i, node := range b.nodes {
		if !node.Ready() {
			b.close()
			return nil, fmt.Errorf("shard %d: membership not settled", i)
		}
	}
	b.base = b.urls[0]
	perm := rng.New(p.seed ^ saltSeeds).Perm(cfg.N)
	for _, s := range perm[:min(count, cfg.N)] {
		b.seq = append(b.seq, communityCall(s, "congest"))
	}
	// The cluster path is uncached, so warm-up seeds need not avoid the timed
	// ones; fixed seeds give every run the same set-up work.
	for _, s := range rng.New(graphSeed ^ saltSeeds).Perm(cfg.N)[:warm] {
		if _, err := b.do(communityCall(s, "congest")); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.hit = communityCall(perm[0], "")

	// Every answer (one per seed: the timed seeds are distinct) is checked
	// against the in-process CONGEST detector afterwards.
	var mu sync.Mutex
	answers := make(map[int]communityBody)
	b.check = func(c *call, body []byte) error {
		cb, err := parseCommunity(body, c.seed)
		if err != nil {
			return err
		}
		mu.Lock()
		answers[c.seed] = cb
		mu.Unlock()
		return nil
	}
	b.verify = func() (int, error) {
		return verifyCommunities(b.g, []core.Option{core.WithEngine(core.EngineCongest)}, answers)
	}
	return b, nil
}

var cachedTrue = []byte(`"cached":true`)

// setupMutateRead: PPM n=2048, r=8 with community lines cached for 4 seeds
// per block; the timed sequence repeats 16 reads round-robin over those
// seeds and one PATCH of 4 edges inside one block, alternately adding a
// batch and deleting it again.
func setupMutateRead(p params) (*bench, error) {
	n, r, perBlock, readsPerWrite, count := 2048, 8, 4, 16, p.seconds*100
	if p.toy {
		n, r, perBlock, count = 256, 4, 2, 18
	}
	cfg := ppmFamily(n, r)
	b, err := newBench(p, cfg, 1)
	if err != nil {
		return nil, err
	}
	// The cached seeds and the edge batches are part of the fixture, like
	// the graph: which lines a batch evicts decides the read misses, and 32
	// lines are too few to average over. The workload seed orders them.
	fr := rng.New(graphSeed ^ saltSeeds)
	size := cfg.BlockSize()
	var seeds []int
	for blk := range r {
		for _, x := range fr.Perm(size)[:perBlock] {
			seeds = append(seeds, blk*size+x)
		}
	}
	br := rng.New(graphSeed ^ saltBatch)
	batches := make([][]graph.Edge, r)
	for blk := range batches {
		batches[blk] = blockBatch(b.g, cfg, blk, br)
	}
	if err := b.startSingle(1); err != nil {
		b.close()
		return nil, err
	}
	for _, s := range seeds {
		if _, err := b.do(communityCall(s, "")); err != nil {
			b.close()
			return nil, fmt.Errorf("cache fill: %w", err)
		}
	}
	b.hit = communityCall(seeds[0], "")

	// Reads visit the seeds round-robin and write pairs visit the blocks
	// round-robin, each round in a fresh seeded order, so a run averages over
	// many orders. The even write of a pair adds its block's batch and the
	// odd write deletes it again, so the graph returns to its start every two
	// writes; reads between the two see graph state 1 + that block.
	sr := rng.New(p.seed ^ saltSeeds)
	var readOrder, blockOrder []int
	state, reads, blk := 0, 0, 0
	for w := 0; len(b.seq) < count; w++ {
		for range readsPerWrite {
			if reads%len(seeds) == 0 {
				readOrder = sr.Perm(len(seeds))
			}
			c := communityCall(seeds[readOrder[reads%len(seeds)]], "")
			c.state = state
			b.seq = append(b.seq, c)
			reads++
		}
		if w%2 == 0 {
			if w/2%r == 0 {
				blockOrder = sr.Perm(r)
			}
			blk = blockOrder[w/2%r]
			state = blk + 1
		} else {
			state = 0
		}
		b.seq = append(b.seq, patchCall(batches[blk], w%2 == 1))
	}
	b.batch = batches[0]

	// One client, so checks run in sequence order. Each PATCH must advance
	// the generation by one. Reads are checked against fresh detections after
	// the timed phase; every distinct body a (state, seed) pair returns is
	// kept for that.
	generation := 0
	answers := make(map[[2]int][][]byte)
	var order [][2]int
	b.check = func(c *call, body []byte) error {
		if c.write {
			var dr struct {
				Generation int `json:"generation"`
			}
			if err := json.Unmarshal(body, &dr); err != nil {
				return err
			}
			if dr.Generation != generation+1 {
				return fmt.Errorf("generation %d after %d", dr.Generation, generation)
			}
			generation = dr.Generation
			return nil
		}
		key := [2]int{c.state, c.seed}
		known := slices.ContainsFunc(answers[key], func(a []byte) bool { return bytes.Equal(a, body) })
		if known && bytes.Contains(body, cachedTrue) {
			return nil // a cache hit with an answer already kept
		}
		cb, err := parseCommunity(body, c.seed)
		if err != nil {
			return err
		}
		b.countWork(cb)
		if !known {
			if len(answers[key]) == 0 {
				order = append(order, key)
			}
			answers[key] = append(answers[key], bytes.Clone(body))
		}
		return nil
	}
	// A miss is computed on the graph state it reads, so an uncached answer
	// must equal a fresh detection of the seed on the pair's own state. A
	// cached answer may instead equal the detection on another state of the
	// run: the registry keeps a line whose community is disjoint from a
	// delta's endpoints without recomputing it, so a hit may return the
	// answer the seed had in an earlier graph state. Those are counted in
	// b.carried. Pairs of the registered state are all checked, mutated
	// states the first 16 seen.
	b.verify = func() (int, error) {
		dets := make(map[int]*core.Detector)
		fresh := make(map[[2]int]communityBody)
		detect := func(st, seed int) (communityBody, error) {
			if cb, ok := fresh[[2]int{st, seed}]; ok {
				return cb, nil
			}
			d, ok := dets[st]
			if !ok {
				g := b.g
				var err error
				if st > 0 {
					if g, err = b.g.ApplyDelta(batches[st-1], nil); err != nil {
						return communityBody{}, err
					}
				}
				if d, err = core.NewDetector(g); err != nil {
					return communityBody{}, err
				}
				dets[st] = d
			}
			comm, stats, err := d.DetectCommunity(context.Background(), seed)
			cb := communityBody{Community: slices.Clone(comm), Stats: toStatsBody(stats)}
			fresh[[2]int{st, seed}] = cb
			return cb, err
		}
		same := func(a, b communityBody) bool {
			return slices.Equal(a.Community, b.Community) && a.Stats == b.Stats
		}
		bad, mutated := 0, 0
		for _, key := range order {
			st, seed := key[0], key[1]
			if st > 0 {
				if mutated == 16 {
					continue
				}
				mutated++
			}
			for _, body := range answers[key] {
				got, err := parseCommunity(body, seed)
				if err != nil {
					return bad, err
				}
				// The pair's own state first; for a cached answer, then every
				// other one.
				states := 1
				if got.Cached {
					states = len(batches) + 1
				}
				matched := false
				for i := 0; i < states && !matched; i++ {
					other := (st + i) % (len(batches) + 1)
					want, err := detect(other, seed)
					if err != nil {
						return bad, err
					}
					if same(got, want) {
						matched = true
						if other != st {
							b.carried++
						}
					}
				}
				if !matched {
					bad++
				}
			}
		}
		return bad, nil
	}
	return b, nil
}
