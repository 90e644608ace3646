// The transport tests run in the external test package so that the pool
// loop's case can install the loopback transport on a core.Detector
// (core.WithCongestTransport).
package congest_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// loopbackTransport is an in-process FloodTransport over graph g that
// evolves the frames with its own independent implementation of the flood
// contract (freeze shares p(w)/d(w), accumulate per receiver in CSR
// neighbour order) — the same arithmetic a cluster shard performs over its
// owned vertices, split the same way: Start freezes the shares from P and
// finish gathers them into Next without reading P. It stands in for a real
// network in the equivalence tests below; rounds counts the rounds it
// started. It fails a Start while another round is in flight, and inflight
// reports a started round that was never finished.
type loopbackTransport struct {
	g        *graph.Graph
	rounds   int
	inflight bool
	shares   [][]float64 // per frame; an isolated vertex's slot keeps its mass
}

func (t *loopbackTransport) Start(_ context.Context, frames []congest.FloodFrame) (func() error, error) {
	if t.inflight {
		return nil, errors.New("round started while another is in flight")
	}
	t.rounds++
	t.inflight = true
	g := t.g
	n := g.NumVertices()
	for len(t.shares) < len(frames) {
		t.shares = append(t.shares, make([]float64, n))
	}
	for i, f := range frames {
		share := t.shares[i]
		for v, mass := range f.P {
			share[v] = mass
			if d := g.Degree(v); d > 0 {
				share[v] = mass * (1 / float64(d))
			}
		}
	}
	return func() error {
		t.inflight = false
		for i, f := range frames {
			share := t.shares[i]
			for u := 0; u < n; u++ {
				if g.Degree(u) == 0 {
					f.Next[u] = share[u]
					continue
				}
				sum := 0.0
				for _, w := range g.Neighbors(u) {
					sum += share[w]
				}
				f.Next[u] = sum
			}
		}
		return nil
	}, nil
}

func transportTestGraph(t *testing.T) *gen.PPM {
	t.Helper()
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 400, R: 2, P: 0.08, Q: 0.004}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return ppm
}

// TestFloodTransportCommunityEquivalence pins the transport contract on the
// solo path: DetectCommunity over a transport-backed network is bit-identical
// — community, full stats struct including simulated Metrics — to the
// in-memory run, and the transport carries exactly one round per walk step:
// a round starts ahead of its step only when the walk is certain to take
// it, never speculatively.
func TestFloodTransportCommunityEquivalence(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := walkConfig(t, ppm.Graph.NumVertices())

	for _, seed := range []int{0, 57, 399} {
		base := congest.NewNetwork(ppm.Graph)
		wantSet, wantStats, err := congest.DetectCommunity(base, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}

		nw := congest.NewNetwork(ppm.Graph)
		tr := &loopbackTransport{g: ppm.Graph}
		nw.SetFloodTransport(tr)
		gotSet, gotStats, err := congest.DetectCommunity(nw, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tr.rounds != gotStats.WalkLength || tr.inflight {
			t.Fatalf("seed %d: transport started %d rounds for a walk of %d steps, one left in flight: %v",
				seed, tr.rounds, gotStats.WalkLength, tr.inflight)
		}
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("seed %d: community diverged: %d vs %d vertices", seed, len(gotSet), len(wantSet))
		}
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats diverged:\n got %+v\nwant %+v", seed, gotStats, wantStats)
		}
		if nw.Metrics() != base.Metrics() {
			t.Fatalf("seed %d: network metrics diverged: %+v vs %+v", seed, nw.Metrics(), base.Metrics())
		}
	}
}

// TestFloodTransportBatchEquivalence pins the transport contract on the
// batched path: DetectBatch and the Detector's batched pool loop stay
// bit-identical when the fused flood kernel is replaced by the transport
// (core.WithCongestTransport), and DetectBatch's transport carries as many
// rounds as its longest walk has steps.
func TestFloodTransportBatchEquivalence(t *testing.T) {
	g := transportTestGraph(t).Graph
	cfg := walkConfig(t, g.NumVertices())
	seeds := []int{3, 120, 250, 398}

	want, err := congest.DetectBatch(congest.NewNetwork(g), seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := congest.NewNetwork(g)
	tr := &loopbackTransport{g: g}
	nw.SetFloodTransport(tr)
	got, err := congest.DetectBatch(nw, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, d := range got {
		longest = max(longest, d.Stats.WalkLength)
	}
	if tr.rounds != longest || tr.inflight {
		t.Fatalf("transport started %d rounds for walks of at most %d steps, one left in flight: %v",
			tr.rounds, longest, tr.inflight)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched detections diverged:\n got %+v\nwant %+v", got, want)
	}

	batch := core.WithCongestBatch(3)
	wantRes, wantM := detectCongest(t, g, batch)
	pooled := &loopbackTransport{g: g}
	gotRes, gotM := detectCongest(t, g, batch, core.WithCongestTransport(pooled))
	if pooled.rounds == 0 || pooled.inflight {
		t.Fatalf("pool loop started %d rounds, one left in flight: %v", pooled.rounds, pooled.inflight)
	}
	if !reflect.DeepEqual(gotRes, wantRes) || gotM != wantM {
		t.Fatal("batched pool results diverged under transport")
	}
}

// failingTransport passes the first after rounds to ok and fails the next
// one in the half fail names: "start" fails its Start, "finish" starts it
// and fails its finish, and "cancel" starts it, cancels the run's context
// and finishes it normally.
type failingTransport struct {
	ok     *loopbackTransport
	after  int
	fail   string
	cancel context.CancelFunc
	calls  int
}

var errLinkDown = errors.New("link down")

func (t *failingTransport) Start(ctx context.Context, frames []congest.FloodFrame) (func() error, error) {
	t.calls++
	if t.calls <= t.after {
		return t.ok.Start(ctx, frames)
	}
	if t.fail == "start" {
		return nil, errLinkDown
	}
	finish, err := t.ok.Start(ctx, frames)
	if err != nil {
		return nil, err
	}
	if t.fail == "cancel" {
		t.cancel()
		return finish, nil
	}
	return func() error {
		_ = finish() // the loopback's round ends either way
		return errLinkDown
	}, nil
}

// TestFloodTransportErrorPropagates pins the failure contract: a transport
// error in either half of a round unwinds the detection with that error
// (wrapped, errors.Is-able), as does a context cancelled while a round is
// in flight, on both the solo and batched paths. Round 2 is the one that
// fails: every walk is certain to take it, so it starts before step 1's
// ladder. The round a failure or cancellation leaves in flight is
// finished, and the network recovers for the next run once the transport
// is healthy again.
func TestFloodTransportErrorPropagates(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := walkConfig(t, ppm.Graph.NumVertices())
	for _, fail := range []string{"start", "finish", "cancel"} {
		for _, seeds := range [][]int{{0}, {0, 57}} {
			at := fmt.Sprintf("%s failure, %d walks", fail, len(seeds))
			want := errLinkDown
			if fail == "cancel" {
				want = context.Canceled
			}
			ctx, cancel := context.WithCancel(context.Background())
			nw := congest.NewNetwork(ppm.Graph)
			ok := &loopbackTransport{g: ppm.Graph}
			tr := &failingTransport{ok: ok, after: 1, fail: fail, cancel: cancel}
			nw.SetFloodTransport(tr)
			_, err := congest.DetectBatchContext(ctx, nw, seeds, cfg)
			cancel()
			if !errors.Is(err, want) {
				t.Fatalf("%s: want %v, got %v", at, want, err)
			}
			if tr.calls != 2 || ok.inflight {
				t.Fatalf("%s: %d rounds started, one left in flight: %v", at, tr.calls, ok.inflight)
			}

			// Healthy transport again: the sticky error must not leak into
			// new runs.
			nw.SetFloodTransport(&loopbackTransport{g: ppm.Graph})
			if _, err := congest.DetectBatch(nw, seeds, cfg); err != nil {
				t.Fatalf("%s: recovered run failed: %v", at, err)
			}
		}
	}
}
