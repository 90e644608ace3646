package cluster

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cdrw/internal/core"
	"cdrw/internal/metrics"
	"cdrw/internal/serve"
	"cdrw/internal/trace"
)

// TestClusterTracePropagation asserts the stitched-trace contract: one
// traced cluster detection yields ONE trace on the driver holding a span
// for EVERY shard rank, the cross-shard pull time lands in the peer_pull
// phase, and the driver's request ID crosses the wire as X-Request-Id on
// the cluster RPCs the remote shards receive.
func TestClusterTracePropagation(t *testing.T) {
	g := clusterTestGraph(t)
	const k = 3

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

	// Each shard's handler is wrapped to record which request IDs arrive on
	// its /cluster/ surface — the wire-level propagation evidence.
	var mu sync.Mutex
	seen := make([]map[string]bool, k)
	nodes := make([]*Node, k)
	for i := 0; i < k; i++ {
		seen[i] = make(map[string]bool)
		m := metrics.NewServeMetrics()
		reg := serve.NewRegistry(1, m)
		node, err := New(reg, Config{Size: k, Advertise: urls[i], Join: urls, PlacementSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register("ppm", g); err != nil {
			t.Fatal(err)
		}
		inner := serve.NewClusterHandler(reg, m, node)
		shard := i
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id := r.Header.Get("X-Request-Id"); id != "" && strings.HasPrefix(r.URL.Path, "/cluster/") {
				mu.Lock()
				seen[shard][id] = true
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(lns[i])
		// Cleanups run newest first: the node closes its links (which
		// http.Server.Close leaves open) before its server closes.
		t.Cleanup(func() { _ = srv.Close() })
		t.Cleanup(node.Stop)
		nodes[i] = node
	}

	id := trace.NewID()
	tr := trace.New(id, "cluster detect")
	ctx := trace.NewContext(context.Background(), tr)
	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(9)}
	_, _, handled, err := nodes[0].Detect(ctx, "ppm", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatal("congest detection should be cluster-handled")
	}

	snap := tr.Snapshot()
	ranks := make(map[int]bool)
	for _, sp := range snap.Spans {
		if sp.Name != "shard" {
			continue
		}
		ranks[sp.Rank] = true
		for _, key := range []string{"freeze_ns", "pull_ns", "gather_ns", "rounds"} {
			if _, ok := sp.Attrs[key]; !ok {
				t.Errorf("shard %d span missing attr %q", sp.Rank, key)
			}
		}
	}
	for r := 0; r < k; r++ {
		if !ranks[r] {
			t.Errorf("trace has no span for rank %d (got ranks %v)", r, ranks)
		}
	}
	if snap.PhaseSeconds["flood"] <= 0 {
		t.Errorf("trace phases %v, want flood time", snap.PhaseSeconds)
	}
	if snap.PhaseSeconds["peer_pull"] <= 0 {
		t.Errorf("trace phases %v, want peer_pull time", snap.PhaseSeconds)
	}

	// The driver's own ID must have reached at least the two remote shards'
	// cluster surfaces (the driver short-circuits its own advance).
	mu.Lock()
	defer mu.Unlock()
	carried := 0
	for i := 0; i < k; i++ {
		if seen[i][id] {
			carried++
		}
	}
	if carried < 2 {
		t.Errorf("X-Request-Id %s reached %d shards over the wire, want >= 2", id, carried)
	}
}

// TestClusterRoundStageMetrics asserts a shard that advanced rounds exposes
// non-empty cdrw_cluster_round_seconds stage series (and the open-sessions
// gauge) on its wire metrics.
func TestClusterRoundStageMetrics(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(4)}
	if _, _, _, err := tc.nodes[0].Detect(context.Background(), "ppm", opts...); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := tc.nodes[1].WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`cdrw_cluster_round_seconds{stage="freeze",quantile="0.99"}`,
		`cdrw_cluster_round_seconds_count{stage="pull"}`,
		`cdrw_cluster_round_seconds_count{stage="gather"}`,
		"cdrw_cluster_open_sessions 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("shard metrics missing %q", want)
		}
	}
	if strings.Contains(body, `cdrw_cluster_round_seconds_count{stage="freeze"} 0`) {
		t.Error("shard advanced rounds but freeze stage count is 0")
	}
}
