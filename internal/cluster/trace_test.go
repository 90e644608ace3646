package cluster

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrw/internal/core"
	"cdrw/internal/trace"
)

// TestClusterTracePropagation asserts the stitched-trace contract: one
// traced cluster detection yields ONE trace on the driver holding a span
// for EVERY shard rank, the cross-shard pull time lands in the peer_pull
// phase, and the driver's request ID reaches each remote shard's session in
// its open frame, as the shard's round log shows.
func TestClusterTracePropagation(t *testing.T) {
	g := clusterTestGraph(t)
	const k = 3
	tc := startCluster(t, k, 7)
	tc.register(t, "ppm", g)
	rounds := &roundLog{seen: make(map[string]map[int]bool)}
	prev := slog.Default()
	slog.SetDefault(slog.New(rounds))
	t.Cleanup(func() { slog.SetDefault(prev) })

	id := trace.NewID()
	tr := trace.New(id, "cluster detect")
	ctx := trace.NewContext(context.Background(), tr)
	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(9)}
	_, _, handled, err := tc.nodes[0].Detect(ctx, "ppm", opts...)
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

	// Every remote shard logs its rounds with the driver's ID (the driver
	// runs its own advance in process, unlogged).
	rounds.mu.Lock()
	defer rounds.mu.Unlock()
	for r := 0; r < k; r++ {
		if r != tc.nodes[0].self && !rounds.seen[id][r] {
			t.Errorf("rank %d logged no round with request id %s (ranks per id: %v)", r, id, rounds.seen)
		}
	}
}

// roundLog is a slog handler that records which ranks logged a round
// under each request id.
type roundLog struct {
	mu   sync.Mutex
	seen map[string]map[int]bool
}

func (h *roundLog) Enabled(context.Context, slog.Level) bool { return true }

func (h *roundLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "cluster round advanced" {
		return nil
	}
	var id string
	rank := -1
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "request_id":
			id = a.Value.String()
		case "rank":
			rank = int(a.Value.Int64())
		}
		return true
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen[id] == nil {
		h.seen[id] = make(map[int]bool)
	}
	h.seen[id][rank] = true
	return nil
}

func (h *roundLog) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h *roundLog) WithGroup(string) slog.Handler { return h }

// TestClusterRoundStageMetrics asserts a shard that advanced rounds exposes
// non-empty cdrw_cluster_round_seconds stage series (and the open-sessions
// gauge, back at 0 once the driver's close arrives) on its wire metrics.
func TestClusterRoundStageMetrics(t *testing.T) {
	g := clusterTestGraph(t)
	tc := startCluster(t, 3, 42)
	tc.register(t, "ppm", g)

	opts := []core.Option{core.WithEngine(core.EngineCongest), core.WithSeed(4)}
	if _, _, _, err := tc.nodes[0].Detect(context.Background(), "ppm", opts...); err != nil {
		t.Fatal(err)
	}

	// The driver's close frame drops shard 1's session just after the
	// detection returns.
	var body string
	eventually(t, 2*time.Second, "shard 1's session closes", func() bool {
		var sb strings.Builder
		if err := tc.nodes[1].WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		body = sb.String()
		return strings.Contains(body, "cdrw_cluster_open_sessions 0")
	})
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
