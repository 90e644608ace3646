// Package metrics implements the community-detection accuracy measures used
// in the paper's evaluation (§IV): per-community precision, recall, and
// F-score relative to the ground-truth community of the seed node, and the
// total F-score averaged over all detected communities. Normalised mutual
// information (NMI) and the adjusted Rand index (ARI) are provided as
// additional sanity metrics.
package metrics

import (
	"fmt"
	"math"
)

// Overlap returns |A ∩ B| for two vertex sets.
func Overlap(a, b []int) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	in := make(map[int]struct{}, len(a))
	for _, v := range a {
		in[v] = struct{}{}
	}
	count := 0
	for _, v := range b {
		if _, ok := in[v]; ok {
			count++
		}
	}
	return count
}

// Precision returns |detected ∩ truth| / |detected| — the fraction of
// detected members that truly belong to the seed's ground-truth community.
// An empty detected set has precision 0.
func Precision(detected, truth []int) float64 {
	if len(detected) == 0 {
		return 0
	}
	return float64(Overlap(detected, truth)) / float64(len(detected))
}

// Recall returns |detected ∩ truth| / |truth| — the fraction of the
// ground-truth community that was recovered. An empty truth set has recall 0.
func Recall(detected, truth []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	return float64(Overlap(detected, truth)) / float64(len(truth))
}

// FScore returns the harmonic mean of precision and recall,
// 2·P·R / (P + R), or 0 when both are 0.
func FScore(detected, truth []int) float64 {
	p := Precision(detected, truth)
	r := Recall(detected, truth)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// DetectionResult pairs one detected community with the ground-truth
// community of its seed node, as the paper's F-score definition requires.
type DetectionResult struct {
	Detected []int
	Truth    []int
}

// TotalFScore returns the average F-score over all detected communities —
// the paper's headline accuracy metric. It returns an error on empty input
// because an average over nothing is undefined, and a silent zero would
// read as "detection failed completely".
func TotalFScore(results []DetectionResult) (float64, error) {
	if len(results) == 0 {
		return 0, fmt.Errorf("metrics: no detection results")
	}
	sum := 0.0
	for _, r := range results {
		sum += FScore(r.Detected, r.Truth)
	}
	return sum / float64(len(results)), nil
}

// contingency builds the r×c contingency table between two labelings over
// the same vertex universe, plus row/column marginals.
func contingency(a, b []int) (table map[[2]int]int, rowSum, colSum map[int]int, n int, err error) {
	if len(a) != len(b) {
		return nil, nil, nil, 0, fmt.Errorf("metrics: labelings have different lengths %d and %d", len(a), len(b))
	}
	table = make(map[[2]int]int)
	rowSum = make(map[int]int)
	colSum = make(map[int]int)
	for i := range a {
		table[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	return table, rowSum, colSum, len(a), nil
}

// NMI returns the normalised mutual information between two labelings
// (arithmetic-mean normalisation). 1 means identical partitions up to label
// renaming; 0 means independence. Both labelings must cover the same
// vertices in the same order.
func NMI(a, b []int) (float64, error) {
	table, rowSum, colSum, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: empty labelings")
	}
	nf := float64(n)
	mi := 0.0
	for key, cnt := range table {
		pij := float64(cnt) / nf
		pi := float64(rowSum[key[0]]) / nf
		pj := float64(colSum[key[1]]) / nf
		mi += pij * math.Log(pij/(pi*pj))
	}
	ha, hb := 0.0, 0.0
	for _, c := range rowSum {
		p := float64(c) / nf
		ha -= p * math.Log(p)
	}
	for _, c := range colSum {
		p := float64(c) / nf
		hb -= p * math.Log(p)
	}
	if ha == 0 && hb == 0 {
		// Both partitions are the trivial single cluster: identical.
		return 1, nil
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0, nil
	}
	v := mi / denom
	// Clamp tiny numerical overshoot.
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v, nil
}

// ARI returns the adjusted Rand index between two labelings: 1 for identical
// partitions, ~0 for random agreement, negative for worse-than-random.
func ARI(a, b []int) (float64, error) {
	table, rowSum, colSum, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: empty labelings")
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	sumIJ := 0.0
	for _, cnt := range table {
		sumIJ += choose2(cnt)
	}
	sumI, sumJ := 0.0, 0.0
	for _, c := range rowSum {
		sumI += choose2(c)
	}
	for _, c := range colSum {
		sumJ += choose2(c)
	}
	total := choose2(n)
	expected := sumI * sumJ / total
	maxIdx := (sumI + sumJ) / 2
	if maxIdx == expected {
		// Degenerate (e.g. both partitions trivial): identical partitions.
		return 1, nil
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}

// BestMatchFScore evaluates a partition against ground-truth communities
// when no seed association exists (e.g. Label Propagation output): each
// detected community is scored against the ground-truth community it
// overlaps most, and the scores are averaged. It returns an error on empty
// input.
func BestMatchFScore(detected, truth [][]int) (float64, error) {
	if len(detected) == 0 {
		return 0, fmt.Errorf("metrics: no detected communities")
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("metrics: no ground-truth communities")
	}
	sum := 0.0
	for _, d := range detected {
		best := 0.0
		for _, g := range truth {
			if f := FScore(d, g); f > best {
				best = f
			}
		}
		sum += best
	}
	return sum / float64(len(detected)), nil
}
