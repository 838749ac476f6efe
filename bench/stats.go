package main

import (
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is the luck of a handful of
// samples (in the limit, the max) and prints as null instead.
const minBeyond = 10

// figure is one reported number with its sample count. A figure that is
// not ok has too few samples to be honest and prints as null.
type figure struct {
	v  float64
	n  int
	ok bool
}

func exact(v float64, n int) figure { return figure{v: v, n: n, ok: true} }

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// nearest rank. ok is false when fewer than minBeyond samples lie
// beyond it, on the side of its thinner tail.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(float64(n-1) * p / 100)
	beyond := min(idx, n-1-idx)
	return sorted[idx], beyond >= minBeyond
}

// pooled is the p-th percentile of all samples, scaled by scale.
func pooled(samples []int64, p, scale float64) figure {
	s := slices.Clone(samples)
	slices.Sort(s)
	v, ok := percentile(s, p)
	return figure{v: float64(v) * scale, n: len(s), ok: ok}
}

// pick is how a window's figure is taken from its sub-windows' figures.
//
// The host this runs on changes speed by a factor of up to two for
// seconds to minutes at a time (README.md, "Noise floor"), and only ever
// slows a run down. A time therefore takes its best sub-window: the
// stretch in which the host interfered least, which ten runs agree on to
// 5-8 % where their medians spread by 15-40 %. A ratio of two times
// measured together (GC CPU share; pause share of a closed loop) moves
// little with the host's speed and takes the median, which is steadier
// still and speaks for the whole window.
type pick int

const (
	middle  pick = iota // median of the sub-windows
	lowest              // best sub-window of a lower-is-better time
	highest             // best sub-window of a higher-is-better rate
)

// over reduces the sub-windows' figures to the window's.
func (how pick) over(xs []float64) float64 {
	switch how {
	case lowest:
		return slices.Min(xs)
	case highest:
		return slices.Max(xs)
	}
	return medianFloat(xs)
}

// windowed reduces, as how says, each sub-window's p-th percentile,
// scaled by scale. A sub-window with too few samples for the percentile
// is left out; when more than half are, the pooled figure is reported
// instead, under the same rule.
func windowed(windows [][]int64, p, scale float64, how pick) figure {
	per := make([]float64, 0, len(windows))
	n := 0
	for _, w := range windows {
		s := slices.Clone(w)
		slices.Sort(s)
		if v, ok := percentile(s, p); ok {
			per = append(per, float64(v))
			n += len(w)
		}
	}
	if 2*len(per) <= len(windows) {
		return pooled(slices.Concat(windows...), p, scale)
	}
	return figure{v: how.over(per) * scale, n: n, ok: true}
}

// medianFloat is the median of a non-empty slice; the mean of the middle
// pair when the length is even.
func medianFloat(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
