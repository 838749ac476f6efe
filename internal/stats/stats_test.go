package stats_test

import (
	"math"
	"testing"
	"testing/quick"

	"lxr/internal/stats"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := stats.Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := stats.Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := stats.Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := stats.Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		lo, hi := float64(a%101), float64(b%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return stats.Percentile(xs, lo) <= stats.Percentile(xs, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := stats.GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean %v", got)
	}
	if got := stats.GeoMean([]float64{0, -1, 4}); got != 4 {
		t.Fatalf("geomean with non-positive %v", got)
	}
	if stats.GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
}

func TestMean(t *testing.T) {
	if stats.Mean([]float64{1, 2, 3, 4, 5}) != 3 {
		t.Fatal("mean")
	}
	if stats.Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}
