package metrics

import "fmt"

// CommunityScore is the per-detection row of an evaluation report.
type CommunityScore struct {
	Index     int
	Detected  int // |detected set|
	Truth     int // |ground-truth community|
	Overlap   int
	Precision float64
	Recall    float64
	FScore    float64
}

// Report evaluates a full detection run against ground truth: one row per
// detection plus the aggregate total F-score (the paper's metric).
type Report struct {
	Rows   []CommunityScore
	TotalF float64
}

// NewReport scores each detection against its associated ground-truth
// community (results[i].Detected vs results[i].Truth).
func NewReport(results []DetectionResult) (*Report, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("metrics: no detection results")
	}
	rep := &Report{Rows: make([]CommunityScore, len(results))}
	sum := 0.0
	for i, r := range results {
		f := FScore(r.Detected, r.Truth)
		rep.Rows[i] = CommunityScore{
			Index:     i,
			Detected:  len(r.Detected),
			Truth:     len(r.Truth),
			Overlap:   Overlap(r.Detected, r.Truth),
			Precision: Precision(r.Detected, r.Truth),
			Recall:    Recall(r.Detected, r.Truth),
			FScore:    f,
		}
		sum += f
	}
	rep.TotalF = sum / float64(len(results))
	return rep, nil
}
