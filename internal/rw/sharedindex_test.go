package rw

import "testing"

// TestSharedIndexLifecycle: one bundle serves concurrent readers, builds
// each table exactly once, and Warm pre-builds both.
func TestSharedIndexLifecycle(t *testing.T) {
	ppm := randomPPM(t, 17)
	g := ppm.Graph
	ix := NewSharedIndex(g)
	if ix.Graph() != g {
		t.Fatal("SharedIndex.Graph returns a different graph")
	}

	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			deg := ix.Degree()
			inv := ix.DegInv()
			if deg == nil || len(inv) != g.NumVertices() {
				t.Error("shared tables missing or mis-sized")
			}
		}()
	}
	deg, inv := ix.Degree(), ix.DegInv()
	for i := 0; i < 8; i++ {
		<-done
	}
	if ix.Degree() != deg {
		t.Fatal("Degree rebuilt on second call")
	}
	for v := 0; v < g.NumVertices(); v++ {
		want := 0.0
		if d := g.Degree(v); d > 0 {
			want = 1 / float64(d)
		}
		if inv[v] != want {
			t.Fatalf("DegInv[%d] = %g, want %g", v, inv[v], want)
		}
	}

	warmed := NewSharedIndex(g).Warm()
	if warmed.Degree() == nil || warmed.DegInv() == nil {
		t.Fatal("Warm did not build the tables")
	}
}
