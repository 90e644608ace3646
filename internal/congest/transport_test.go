// The transport tests run in the external test package so that the pool
// loop's case can install the loopback transport on a core.Detector
// (core.WithCongestTransport).
package congest_test

import (
	"context"
	"errors"
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
// owned vertices. It stands in for a real network in the equivalence tests
// below; rounds counts the floods it served.
type loopbackTransport struct {
	g      *graph.Graph
	rounds int
	share  []float64
}

func (t *loopbackTransport) Flood(_ context.Context, frames []congest.FloodFrame) error {
	t.rounds++
	g := t.g
	n := g.NumVertices()
	if cap(t.share) < n {
		t.share = make([]float64, n)
	}
	share := t.share[:n]
	for _, f := range frames {
		for v, mass := range f.P {
			if d := g.Degree(v); d > 0 {
				share[v] = mass * (1 / float64(d))
			} else {
				share[v] = 0
			}
		}
		for u := 0; u < n; u++ {
			sum := 0.0
			for _, w := range g.Neighbors(u) {
				sum += share[w]
			}
			if g.Degree(u) == 0 {
				sum = f.P[u]
			}
			f.Next[u] = sum
		}
	}
	return nil
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
// in-memory run.
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
		if tr.rounds == 0 {
			t.Fatal("transport never invoked")
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
// (core.WithCongestTransport).
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
	if tr.rounds == 0 {
		t.Fatal("transport never invoked")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched detections diverged:\n got %+v\nwant %+v", got, want)
	}

	batch := core.WithCongestBatch(3)
	wantRes, wantM := detectCongest(t, g, batch)
	pooled := &loopbackTransport{g: g}
	gotRes, gotM := detectCongest(t, g, batch, core.WithCongestTransport(pooled))
	if pooled.rounds == 0 {
		t.Fatal("transport never invoked by the pool loop")
	}
	if !reflect.DeepEqual(gotRes, wantRes) || gotM != wantM {
		t.Fatal("batched pool results diverged under transport")
	}
}

// failingTransport fails every flood after a set number of successes.
type failingTransport struct {
	ok    *loopbackTransport
	after int
	calls int
}

var errLinkDown = errors.New("link down")

func (t *failingTransport) Flood(ctx context.Context, frames []congest.FloodFrame) error {
	t.calls++
	if t.calls > t.after {
		return errLinkDown
	}
	return t.ok.Flood(ctx, frames)
}

// TestFloodTransportErrorPropagates pins the failure contract: a transport
// error unwinds the detection with that error (wrapped, errors.Is-able) on
// both the solo and batched paths, and the network recovers for the next run
// once the transport is healthy again.
func TestFloodTransportErrorPropagates(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := walkConfig(t, ppm.Graph.NumVertices())

	nw := congest.NewNetwork(ppm.Graph)
	nw.SetFloodTransport(&failingTransport{ok: &loopbackTransport{g: ppm.Graph}, after: 2})
	if _, _, err := congest.DetectCommunity(nw, 0, cfg); !errors.Is(err, errLinkDown) {
		t.Fatalf("solo path: want errLinkDown, got %v", err)
	}

	nw.SetFloodTransport(&failingTransport{ok: &loopbackTransport{g: ppm.Graph}, after: 1})
	if _, err := congest.DetectBatch(nw, []int{0, 57}, cfg); !errors.Is(err, errLinkDown) {
		t.Fatalf("batched path: want errLinkDown, got %v", err)
	}

	// Healthy transport again: the sticky error must not leak into new runs.
	nw.SetFloodTransport(&loopbackTransport{g: ppm.Graph})
	if _, _, err := congest.DetectCommunity(nw, 0, cfg); err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
}
