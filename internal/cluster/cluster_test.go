package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
	"cdrw/internal/serve"
)

// testCluster is k real cdrwd HTTP surfaces on loopback sockets, each with
// its own registry and cluster node — the in-process equivalent of the CI
// smoke topology.
type testCluster struct {
	nodes []*Node
	regs  []*serve.Registry
	urls  []string
}

// startCluster boots k shards whose join lists name every peer, so
// membership settles at construction without gossip latency.
func startCluster(t testing.TB, k int, placementSeed uint64) *testCluster {
	t.Helper()
	lns := make([]net.Listener, k)
	urls := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	tc := &testCluster{urls: urls}
	for i := 0; i < k; i++ {
		m := metrics.NewServeMetrics()
		reg := serve.NewRegistry(1, m)
		node, err := New(reg, Config{
			Size:          k,
			Advertise:     urls[i],
			Join:          urls,
			PlacementSeed: placementSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !node.Ready() {
			t.Fatalf("shard %d: full join list should settle at construction", i)
		}
		srv := &http.Server{Handler: serve.NewClusterHandler(reg, m, node)}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(lns[i])
		// Cleanups run newest first: the node closes its links (which
		// http.Server.Close leaves open) before its server closes.
		t.Cleanup(func() { _ = srv.Close() })
		t.Cleanup(node.Stop)
		tc.nodes = append(tc.nodes, node)
		tc.regs = append(tc.regs, reg)
	}
	return tc
}

// register installs the same graph on every shard under one name.
func (tc *testCluster) register(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	for i, reg := range tc.regs {
		if err := reg.Register(name, g); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

func clusterTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 300, R: 3, P: 0.1, Q: 0.005}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return ppm.Graph
}

// TestClusterDetectConformance is the headline invariant: a full detection
// driven from ANY shard of a 3-machine cluster is bit-identical — every Raw
// and Assigned set, every stat — to a single-process CONGEST run of the same
// resolved settings.
func TestClusterDetectConformance(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(9)}
	det, err := core.NewDetector(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for rank, node := range tc.nodes {
		got, _, handled, err := node.Detect(context.Background(), "ppm", opts...)
		if err != nil {
			t.Fatalf("driver rank %d: %v", rank, err)
		}
		if !handled {
			t.Fatalf("driver rank %d: congest request not handled", rank)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("driver rank %d: cluster result diverged from single-process run", rank)
		}
	}
}

// TestClusterDetectCommunityConformance pins the single-seed path, including
// the full stats struct, across several seeds.
func TestClusterDetectCommunityConformance(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest)}
	det, err := core.NewDetector(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 123, 299} {
		wantSet, wantStats, err := det.DetectCommunity(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		node := tc.nodes[seed%len(tc.nodes)]
		gotSet, gotStats, _, handled, err := node.DetectCommunity(context.Background(), "ppm", seed, opts...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !handled {
			t.Fatalf("seed %d: not handled", seed)
		}
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("seed %d: community diverged", seed)
		}
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats diverged:\n got %+v\nwant %+v", seed, gotStats, wantStats)
		}
	}
}

// TestClusterBatchConformance pins the batched pool loop: shared rounds fuse
// several walks into one payload per link, and the result still matches the
// single-process batched run bit for bit.
func TestClusterBatchConformance(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 7)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithCongestBatch(4)}
	det, err := core.NewDetector(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _, handled, err := tc.nodes[1].Detect(context.Background(), "ppm", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatal("not handled")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batched cluster result diverged from single-process run")
	}
}

// TestClusterDeclinesInMemoryEngines pins the fallback contract: requests
// for the in-memory engines return handled=false so serve's local pools
// answer them.
func TestClusterDeclinesInMemoryEngines(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)
	_, _, handled, err := tc.nodes[0].Detect(context.Background(), "ppm", core.WithEngine(core.EngineReference))
	if err != nil {
		t.Fatal(err)
	}
	if handled {
		t.Fatal("reference engine should not be cluster-handled")
	}
}

// TestClusterWireWithinPredicted validates the Conversion-Theorem link-load
// claim on real sockets: the measured per-round word load of the most
// congested machine link never exceeds the simulator's predicted
// MaxLinkLoad for the same placement (coalescing sends one share per
// boundary vertex where the simulated routing pays one message per edge).
// The run is sequential, so its prediction is the maximum of its seeds'.
func TestClusterWireWithinPredicted(t *testing.T) {
	g := clusterTestGraph(t)
	const placementSeed = 42
	tc := startCluster(t, 3, placementSeed)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest)}
	res, settings, handled, err := tc.nodes[0].Detect(context.Background(), "ppm", opts...)
	if err != nil || !handled {
		t.Fatalf("cluster detect: handled=%v err=%v", handled, err)
	}

	measured := int64(0)
	for _, node := range tc.nodes {
		if w := node.Metrics().MaxLinkWords(); w > measured {
			measured = w
		}
	}
	if measured == 0 {
		t.Fatal("no wire words measured — shares never crossed a socket")
	}

	assign, err := hashAssign(g.NumVertices(), 3, placementSeed)
	if err != nil {
		t.Fatal(err)
	}
	var predicted int64
	for _, det := range res.Detections {
		seedRun, err := PredictCommunity(context.Background(), g, assign, det.Stats.Seed, settings)
		if err != nil {
			t.Fatal(err)
		}
		predicted = max(predicted, seedRun.MaxLinkLoad)
	}
	if predicted == 0 {
		t.Fatal("simulator predicted zero link load")
	}
	if measured > predicted {
		t.Fatalf("measured max link load %d words exceeds predicted %d", measured, predicted)
	}
	t.Logf("measured max link %d words, predicted %d (ratio %.3f)",
		measured, predicted, float64(measured)/float64(predicted))
}

// TestClusterSessionErrors pins the shard-side validation: out-of-order
// rounds, unknown sessions and mismatched graphs are rejected with the
// cluster error class.
func TestClusterSessionErrors(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 2, 1)
	tc.register(t, "ppm", g)

	node := tc.nodes[0]
	if _, err := node.session("nope"); !errors.Is(err, serve.ErrCluster) {
		t.Fatalf("unknown session: want ErrCluster, got %v", err)
	}

	ranks, self, err := node.roster()
	if err != nil {
		t.Fatal(err)
	}
	sreq := sessionRequest{
		Session: "t1", Graph: "ppm", Members: ranks,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), PlacementSeed: 1,
	}
	if _, err := node.createSession(sreq, ""); err != nil {
		t.Fatal(err)
	}
	defer node.dropSession("t1")
	s, err := node.session("t1")
	if err != nil {
		t.Fatal(err)
	}
	if s.self != self {
		t.Fatalf("session rank %d, node rank %d", s.self, self)
	}
	// Round 2 before round 1 is out of order.
	if _, err := s.advance(context.Background(), advanceRequest{Round: 2}); !errors.Is(err, serve.ErrCluster) {
		t.Fatalf("out-of-order round: want ErrCluster, got %v", err)
	}

	// A graph whose shape differs from the driver's must be rejected.
	bad := sreq
	bad.Session = "t2"
	bad.Vertices++
	if _, err := node.createSession(bad, ""); err == nil || !strings.Contains(err.Error(), "identical graphs") {
		t.Fatalf("mismatched graph: got %v", err)
	}

	// Unregistered graph.
	bad = sreq
	bad.Session = "t3"
	bad.Graph = "missing"
	if _, err := node.createSession(bad, ""); !errors.Is(err, serve.ErrCluster) {
		t.Fatalf("missing graph: want ErrCluster, got %v", err)
	}
}

// TestClusterNotReady pins the not-ready contract end to end: a shard whose
// membership has not settled refuses to drive detections with
// serve.ErrClusterNotReady, and its /readyz reports 503 until gossip
// settles, then flips to 200.
func TestClusterNotReady(t *testing.T) {
	g := clusterTestGraph(t)

	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}

	nodes := make([]*Node, 2)
	for i := range nodes {
		m := metrics.NewServeMetrics()
		reg := serve.NewRegistry(1, m)
		if err := reg.Register("ppm", g); err != nil {
			t.Fatal(err)
		}
		join := []string(nil)
		if i == 1 {
			join = []string{urls[0]} // shard 1 knows shard 0; shard 0 knows nobody
		}
		node, err := New(reg, Config{Size: 2, Advertise: urls[i], Join: join})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		srv := &http.Server{Handler: serve.NewClusterHandler(reg, m, node)}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(lns[i])
		t.Cleanup(func() { _ = srv.Close() })
	}

	if nodes[0].Ready() {
		t.Fatal("shard 0 should not be ready before gossip")
	}
	if _, _, _, err := nodes[0].Detect(context.Background(), "ppm", core.WithEngine(core.EngineCongest)); !errors.Is(err, serve.ErrClusterNotReady) {
		t.Fatalf("unsettled detect: want ErrClusterNotReady, got %v", err)
	}
	if status := readyzStatus(t, urls[0]); status != http.StatusServiceUnavailable {
		t.Fatalf("unsettled /readyz: want 503, got %d", status)
	}

	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for !(nodes[0].Ready() && nodes[1].Ready()) {
		if time.Now().After(deadline) {
			t.Fatal("membership never settled")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status := readyzStatus(t, urls[0]); status != http.StatusOK {
		t.Fatalf("settled /readyz: want 200, got %d", status)
	}
	st := nodes[0].Status()
	if !st.Settled || len(st.Members) != 2 || st.Rank < 0 {
		t.Fatalf("settled status off: %+v", st)
	}

	// And the cluster actually works after the flip.
	if _, _, handled, err := nodes[1].Detect(context.Background(), "ppm", core.WithEngine(core.EngineCongest)); err != nil || !handled {
		t.Fatalf("post-settle detect: handled=%v err=%v", handled, err)
	}
}

func readyzStatus(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestClusterHTTPByteIdentical drives POST /graphs/{name}/detect against a
// cluster shard and a plain single-process handler and requires the
// response bodies to be byte-identical — the invariant the CI smoke job
// checks across real processes.
func TestClusterHTTPByteIdentical(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)

	soloReg := serve.NewRegistry(1, nil)
	if err := soloReg.Register("ppm", g); err != nil {
		t.Fatal(err)
	}
	solo := &http.Server{Handler: serve.NewHandler(soloReg, nil)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = solo.Serve(ln) }()
	t.Cleanup(func() { _ = solo.Close() })
	soloURL := "http://" + ln.Addr().String()

	body := `{"engine":"congest","seed":5}`
	want := postBody(t, soloURL+"/graphs/ppm/detect", body)
	for rank, u := range tc.urls {
		got := postBody(t, u+"/graphs/ppm/detect", body)
		if got != want {
			t.Fatalf("shard %d response differs from single-process:\n got %s\nwant %s", rank, got, want)
		}
	}
}

func postBody(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestStoreInvariants checks the shard-local view against brute force: owned
// sets partition the vertices, boundary lists hold exactly the owned
// vertices with a neighbour on the peer, and NeedsPull is symmetric.
func TestStoreInvariants(t *testing.T) {
	g := clusterTestGraph(t)
	const k = 4
	assign, err := hashAssign(g.NumVertices(), k, 3)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*Store, k)
	total := 0
	for r := 0; r < k; r++ {
		s, err := NewStore(g, assign, r)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = s
		total += len(s.Owned())
		for _, v := range s.Owned() {
			if assign.Home[v] != r {
				t.Fatalf("rank %d owns vertex %d homed on %d", r, v, assign.Home[v])
			}
		}
		for j := 0; j < k; j++ {
			want := map[int32]bool{}
			for v := 0; v < g.NumVertices(); v++ {
				if assign.Home[v] != r || j == r {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if assign.Home[w] == j {
						want[int32(v)] = true
						break
					}
				}
			}
			got := s.Boundary(j)
			if len(got) != len(want) {
				t.Fatalf("rank %d boundary to %d: %d vertices, want %d", r, j, len(got), len(want))
			}
			for _, v := range got {
				if !want[v] {
					t.Fatalf("rank %d boundary to %d contains %d", r, j, v)
				}
			}
		}
	}
	if total != g.NumVertices() {
		t.Fatalf("owned sets cover %d of %d vertices", total, g.NumVertices())
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a != b && stores[a].NeedsPull(b) != stores[b].NeedsPull(a) {
				t.Fatalf("pull need asymmetric between %d and %d", a, b)
			}
		}
	}
	if _, err := NewStore(g, assign, k); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}
