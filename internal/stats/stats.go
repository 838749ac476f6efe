// Package stats provides the small statistical toolkit the evaluation
// harness uses: geometric means over benchmarks (§4), and the
// sort-based percentile and mean the histogram tests compare against.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0-100) of xs using
// nearest-rank on a sorted copy. Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values; non-positive
// values are skipped (missing data points, as in Table 6's geomean rows).
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
