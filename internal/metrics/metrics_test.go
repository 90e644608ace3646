package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"cdrw/internal/rng"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestOverlap(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, nil, 0},
		{[]int{1, 2, 3}, []int{3, 4, 5}, 1},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 3},
		{[]int{1}, []int{2, 3, 4, 5, 1}, 1},
	}
	for _, tc := range cases {
		if got := Overlap(tc.a, tc.b); got != tc.want {
			t.Errorf("Overlap(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPrecisionRecallFScore(t *testing.T) {
	detected := []int{1, 2, 3, 4}
	truth := []int{3, 4, 5, 6, 7, 8}
	if got := Precision(detected, truth); !almostEq(got, 0.5) {
		t.Errorf("precision = %v, want 0.5", got)
	}
	if got := Recall(detected, truth); !almostEq(got, 2.0/6.0) {
		t.Errorf("recall = %v, want 1/3", got)
	}
	wantF := 2 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0/3.0)
	if got := FScore(detected, truth); !almostEq(got, wantF) {
		t.Errorf("fscore = %v, want %v", got, wantF)
	}
}

func TestPerfectDetection(t *testing.T) {
	set := []int{0, 1, 2, 3}
	if Precision(set, set) != 1 || Recall(set, set) != 1 || FScore(set, set) != 1 {
		t.Fatal("perfect detection should score 1 on all metrics")
	}
}

func TestDisjointDetection(t *testing.T) {
	if got := FScore([]int{1, 2}, []int{3, 4}); got != 0 {
		t.Fatalf("disjoint fscore = %v, want 0", got)
	}
}

func TestEmptySets(t *testing.T) {
	if Precision(nil, []int{1}) != 0 {
		t.Error("precision of empty detected should be 0")
	}
	if Recall([]int{1}, nil) != 0 {
		t.Error("recall against empty truth should be 0")
	}
	if FScore(nil, nil) != 0 {
		t.Error("fscore of empty/empty should be 0")
	}
}

func TestFScoreProperties(t *testing.T) {
	// Property: F-score is in [0,1] and symmetric under swapping
	// detected/truth (harmonic mean of P and R swaps P<->R).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		mk := func() []int {
			n := r.Intn(20)
			s := make([]int, 0, n)
			seen := map[int]bool{}
			for len(s) < n {
				v := r.Intn(30)
				if !seen[v] {
					seen[v] = true
					s = append(s, v)
				}
			}
			return s
		}
		a, b := mk(), mk()
		fab := FScore(a, b)
		fba := FScore(b, a)
		return fab >= 0 && fab <= 1 && almostEq(fab, fba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalFScore(t *testing.T) {
	results := []DetectionResult{
		{Detected: []int{1, 2}, Truth: []int{1, 2}},       // F = 1
		{Detected: []int{1, 2}, Truth: []int{3, 4}},       // F = 0
		{Detected: []int{1, 2, 3, 4}, Truth: []int{3, 4}}, // P=.5 R=1 F=2/3
	}
	got, err := TotalFScore(results)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 0 + 2.0/3.0) / 3
	if !almostEq(got, want) {
		t.Fatalf("total F = %v, want %v", got, want)
	}
}

func TestTotalFScoreEmpty(t *testing.T) {
	if _, err := TotalFScore(nil); err == nil {
		t.Fatal("TotalFScore(nil) should error")
	}
}

func TestNMIIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	got, err := NMI(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1) {
		t.Fatalf("NMI(a,a) = %v, want 1", got)
	}
}

func TestNMIRelabelInvariant(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{7, 7, 3, 3, 9, 9}
	got, err := NMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1) {
		t.Fatalf("NMI under relabeling = %v, want 1", got)
	}
}

func TestNMIIndependent(t *testing.T) {
	// Perfectly crossed partitions: every combination equally likely.
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	got, err := NMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-9 {
		t.Fatalf("NMI of independent partitions = %v, want 0", got)
	}
}

func TestNMITrivialPartitions(t *testing.T) {
	a := []int{5, 5, 5}
	got, err := NMI(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("NMI of identical trivial partitions = %v, want 1", got)
	}
}

func TestNMIErrors(t *testing.T) {
	if _, err := NMI([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NMI(nil, nil); err == nil {
		t.Fatal("empty labelings accepted")
	}
}

func TestARIIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	got, err := ARI(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1) {
		t.Fatalf("ARI(a,a) = %v, want 1", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Classic example: two partitions of 6 elements.
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 2, 2}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation: sumIJ = C(2,2)+C(1,2)+C(1,2)+C(2,2) = 1+0+0+1 = 2;
	// sumI = 2*C(3,2) = 6; sumJ = 3*C(2,2) = 3; total = C(6,2) = 15;
	// expected = 6*3/15 = 1.2; max = 4.5; ARI = (2-1.2)/(4.5-1.2) = 0.2424...
	want := (2.0 - 1.2) / (4.5 - 1.2)
	if !almostEq(got, want) {
		t.Fatalf("ARI = %v, want %v", got, want)
	}
}

func TestARIRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(30)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
			b[i] = r.Intn(4)
		}
		v, err := ARI(a, b)
		return err == nil && v <= 1+1e-12 && v >= -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
