package telemetry

import "math"

// ErrorBound returns the documented relative error bound of quantile
// queries at this precision: 2^(1-Precision).
func (c Config) ErrorBound() float64 {
	n := c.normalize()
	return math.Pow(2, 1-float64(n.Precision))
}

// Buckets calls f for every non-empty bucket in ascending value order
// with the bucket's value range and count.
func (h *Histogram) Buckets(f func(lo, hi, count int64)) {
	for i := int32(0); i < h.l.countsLen; i++ {
		if c := h.counts[i]; c != 0 {
			lo, hi := h.l.boundsOf(i)
			f(lo, hi, c)
		}
	}
}
