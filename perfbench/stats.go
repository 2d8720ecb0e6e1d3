package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the helper refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// sample count it rests on. It fails unless at least minBeyond samples lie
// beyond the reported rank.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, n, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("p%v of %d samples has %d beyond it, want >= %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n, nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runnerIdleFrac is the share of a worker pool's capacity left unused over
// a batch: 1 − Σ run wall / (workers × batch wall).
func runnerIdleFrac(runWalls []float64, workers int, batchWall float64) float64 {
	if workers <= 0 || batchWall <= 0 {
		return 0
	}
	var busy float64
	for _, w := range runWalls {
		busy += w
	}
	return 1 - busy/(float64(workers)*batchWall)
}
