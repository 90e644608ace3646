package gen

import (
	"math"
	"testing"
	"testing/quick"

	"cdrw/internal/rng"
)

func TestPairFromIndexExhaustive(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 33} {
		k := int64(0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				gu, gv := pairFromIndex(k, n)
				if gu != u || gv != v {
					t.Fatalf("pairFromIndex(%d, %d) = (%d,%d), want (%d,%d)", k, n, gu, gv, u, v)
				}
				k++
			}
		}
		if k != pairCount(n) {
			t.Fatalf("pairCount(%d) = %d, enumerated %d", n, pairCount(n), k)
		}
	}
}

func TestPairFromIndexLargeN(t *testing.T) {
	// Property: the mapping is consistent with rowStart for large n where
	// exhaustive enumeration is infeasible.
	n := 1 << 20
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := int64(r.Intn(int(pairCount(n))))
		u, v := pairFromIndex(k, n)
		return u >= 0 && u < v && v < n && rowStart(u, n)+int64(v-u-1) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGnpEdgeCount(t *testing.T) {
	r := rng.New(1)
	n, p := 500, 0.05
	g, err := Gnp(n, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := float64(pairCount(n)) * p
	got := float64(g.NumEdges())
	sd := math.Sqrt(want * (1 - p))
	if math.Abs(got-want) > 5*sd {
		t.Fatalf("edge count %v deviates from expectation %v (sd %v)", got, want, sd)
	}
}

func TestGnpExtremes(t *testing.T) {
	r := rng.New(2)
	g, err := Gnp(10, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("Gnp(10, 0) has %d edges", g.NumEdges())
	}
	g, err = Gnp(10, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 45 {
		t.Fatalf("Gnp(10, 1) has %d edges, want 45", g.NumEdges())
	}
	if _, err := Gnp(5, 1.5, r); err == nil {
		t.Fatal("accepted p > 1")
	}
	if _, err := Gnp(-1, 0.5, r); err == nil {
		t.Fatal("accepted negative n")
	}
	g, err = Gnp(0, 0.5, r)
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("Gnp(0) = %v, %v", g, err)
	}
	g, err = Gnp(1, 0.5, r)
	if err != nil || g.NumEdges() != 0 {
		t.Fatalf("Gnp(1) should have no edges: %v, %v", g, err)
	}
}

func TestGnpDeterministic(t *testing.T) {
	g1, err := Gnp(200, 0.03, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Gnp(200, 0.03, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	g1.Edges(func(u, v int) bool {
		if !g2.HasEdge(u, v) {
			t.Errorf("edge %d-%d missing in replay", u, v)
			return false
		}
		return true
	})
}

func TestGnpConnectivityAboveThreshold(t *testing.T) {
	// p = 2 log n / n is comfortably above the connectivity threshold;
	// the sample should be connected with overwhelming probability.
	n := 1 << 10
	p := 2 * Log2(n) / float64(n)
	g, err := Gnp(n, p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("Gnp above connectivity threshold came out disconnected")
	}
}

func TestGnpDegreeConcentration(t *testing.T) {
	n := 2000
	p := 0.01
	g, err := Gnp(n, p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) * p
	if got := g.AverageDegree(); math.Abs(got-want) > 0.1*want {
		t.Fatalf("average degree %v far from expectation %v", got, want)
	}
}

func TestPPMConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  PPMConfig
		ok   bool
	}{
		{"valid", PPMConfig{N: 100, R: 4, P: 0.5, Q: 0.01}, true},
		{"zero n", PPMConfig{N: 0, R: 1, P: 0.5}, false},
		{"zero r", PPMConfig{N: 10, R: 0, P: 0.5}, false},
		{"indivisible", PPMConfig{N: 10, R: 3, P: 0.5}, false},
		{"bad p", PPMConfig{N: 10, R: 2, P: 1.5}, false},
		{"bad q", PPMConfig{N: 10, R: 2, P: 0.5, Q: -0.1}, false},
		{"single block", PPMConfig{N: 10, R: 1, P: 0.3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestPPMStructure(t *testing.T) {
	cfg := PPMConfig{N: 400, R: 4, P: 0.2, Q: 0.005}
	ppm, err := NewPPM(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := ppm.Graph
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Ground truth: contiguous blocks of 100.
	for v := 0; v < 400; v++ {
		if ppm.Truth[v] != v/100 {
			t.Fatalf("truth[%d] = %d, want %d", v, ppm.Truth[v], v/100)
		}
	}
	// Count intra vs inter edges; intra should dominate heavily.
	intra, inter := 0, 0
	g.Edges(func(u, v int) bool {
		if ppm.Truth[u] == ppm.Truth[v] {
			intra++
		} else {
			inter++
		}
		return true
	})
	wantIntra := cfg.ExpectedIntraEdges() * float64(cfg.R)
	wantInter := cfg.ExpectedInterEdges() * float64(cfg.R) / 2
	if math.Abs(float64(intra)-wantIntra) > 0.15*wantIntra {
		t.Errorf("intra edges %d far from expectation %v", intra, wantIntra)
	}
	if math.Abs(float64(inter)-wantInter) > 0.4*wantInter+10 {
		t.Errorf("inter edges %d far from expectation %v", inter, wantInter)
	}
}

func TestPPMTruthCommunities(t *testing.T) {
	ppm, err := NewPPM(PPMConfig{N: 40, R: 4, P: 0.5, Q: 0.01}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	comms := ppm.TruthCommunities()
	if len(comms) != 4 {
		t.Fatalf("%d communities, want 4", len(comms))
	}
	seen := make(map[int]bool)
	for blk, set := range comms {
		if len(set) != 10 {
			t.Fatalf("community %d has %d members, want 10", blk, len(set))
		}
		for _, v := range set {
			if ppm.Truth[v] != blk {
				t.Fatalf("vertex %d listed in community %d but truth is %d", v, blk, ppm.Truth[v])
			}
			if seen[v] {
				t.Fatalf("vertex %d appears in two communities", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 40 {
		t.Fatalf("communities cover %d vertices, want 40", len(seen))
	}
}

func TestPPMExpectedQuantities(t *testing.T) {
	// Reproduce the worked example of §IV: n=2^11, r=2. The paper reports
	// e_in = C(n/r,2)·p ≈ 10230 and e_out = (n/r)(n−n/r)·q ≈ 614, which
	// pins down the parameterisation: p = 2·log₂(s)/s and q = 0.6/s with
	// s = n/r = 2^10 the community size.
	s := 1024.0
	cfg := PPMConfig{N: 2048, R: 2, P: 2 * Log2(1024) / s, Q: 0.6 / s}
	ein := cfg.ExpectedIntraEdges()
	eout := cfg.ExpectedInterEdges()
	if math.Abs(ein-10230) > 10 {
		t.Fatalf("expected intra edges %v, paper reports ≈10230", ein)
	}
	if math.Abs(eout-614) > 2 {
		t.Fatalf("expected inter edges %v, paper reports ≈614", eout)
	}
	ratio := eout / ein
	if ratio < 0.05 || ratio > 0.07 {
		t.Fatalf("e_out/e_in = %v, paper reports ≈0.06", ratio)
	}
	if c := cfg.ExpectedConductance(); c <= 0 || c >= 1 {
		t.Fatalf("expected conductance %v out of (0,1)", c)
	}
	if d := cfg.ExpectedDegree(); math.Abs(d-(cfg.P*1023+cfg.Q*1024)) > 1e-9 {
		t.Fatalf("expected degree %v inconsistent", d)
	}
}

func TestPPMSingleBlockIsGnp(t *testing.T) {
	cfg := PPMConfig{N: 300, R: 1, P: 0.05, Q: 0.9} // q irrelevant with r=1
	ppm, err := NewPPM(cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(pairCount(300)) * 0.05
	got := float64(ppm.Graph.NumEdges())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("single-block PPM edge count %v deviates from Gnp expectation %v", got, want)
	}
}

func TestPPMDeterministic(t *testing.T) {
	cfg := PPMConfig{N: 200, R: 2, P: 0.1, Q: 0.01}
	a, err := NewPPM(cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPPM(cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different PPM graphs")
	}
}

func TestSBMGeneral(t *testing.T) {
	cfg := SBMConfig{
		BlockSizes: []int{50, 100, 150},
		Probs: [][]float64{
			{0.3, 0.01, 0.0},
			{0.01, 0.2, 0.02},
			{0.0, 0.02, 0.1},
		},
	}
	sbm, err := NewSBM(cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if sbm.Graph.NumVertices() != 300 {
		t.Fatalf("n = %d", sbm.Graph.NumVertices())
	}
	if err := sbm.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Block 0 and block 2 have zero connection probability.
	for v := 0; v < 50; v++ {
		for _, w := range sbm.Graph.Neighbors(v) {
			if sbm.Truth[int(w)] == 2 {
				t.Fatalf("edge between blocks 0 and 2 despite p=0")
			}
		}
	}
	// Truth labels follow block layout.
	if sbm.Truth[0] != 0 || sbm.Truth[60] != 1 || sbm.Truth[200] != 2 {
		t.Fatalf("truth labels wrong: %d %d %d", sbm.Truth[0], sbm.Truth[60], sbm.Truth[200])
	}
}

func TestSBMValidation(t *testing.T) {
	bad := []SBMConfig{
		{},
		{BlockSizes: []int{0}, Probs: [][]float64{{0.1}}},
		{BlockSizes: []int{5}, Probs: [][]float64{}},
		{BlockSizes: []int{5, 5}, Probs: [][]float64{{0.1, 0.2}, {0.3, 0.1}}}, // asymmetric
		{BlockSizes: []int{5}, Probs: [][]float64{{1.5}}},
	}
	for i, cfg := range bad {
		if _, err := NewSBM(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLog2(t *testing.T) {
	if Log2(0) != 0 {
		t.Fatal("Log2(0) should be 0")
	}
	if Log2(8) != 3 {
		t.Fatalf("Log2(8) = %v", Log2(8))
	}
}
