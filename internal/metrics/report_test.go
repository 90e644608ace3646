package metrics

import "testing"

func TestNewReport(t *testing.T) {
	results := []DetectionResult{
		{Detected: []int{1, 2}, Truth: []int{1, 2}},
		{Detected: []int{1, 2, 3, 4}, Truth: []int{3, 4}},
	}
	rep, err := NewReport(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	if rep.Rows[0].FScore != 1 {
		t.Fatalf("row 0 F = %v", rep.Rows[0].FScore)
	}
	r1 := rep.Rows[1]
	if r1.Overlap != 2 || r1.Precision != 0.5 || r1.Recall != 1 {
		t.Fatalf("row 1 = %+v", r1)
	}
	wantTotal := (1 + 2*0.5*1/(0.5+1)) / 2
	if diff := rep.TotalF - wantTotal; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("total F = %v, want %v", rep.TotalF, wantTotal)
	}
}

func TestNewReportEmpty(t *testing.T) {
	if _, err := NewReport(nil); err == nil {
		t.Fatal("empty results accepted")
	}
}

func TestBestMatchFScore(t *testing.T) {
	truth := [][]int{{0, 1, 2}, {3, 4, 5}}
	detected := [][]int{{0, 1}, {3, 4, 5}, {2}}
	f, err := BestMatchFScore(detected, truth)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1} vs {0,1,2}: F = 2·1·(2/3)/(1+2/3) = 0.8; {3,4,5}: 1; {2}: F =
	// 2·1·(1/3)/(1+1/3) = 0.5.
	want := (0.8 + 1 + 0.5) / 3
	if diff := f - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("best-match F = %v, want %v", f, want)
	}
}

func TestBestMatchFScoreErrors(t *testing.T) {
	if _, err := BestMatchFScore(nil, [][]int{{1}}); err == nil {
		t.Fatal("empty detected accepted")
	}
	if _, err := BestMatchFScore([][]int{{1}}, nil); err == nil {
		t.Fatal("empty truth accepted")
	}
}
