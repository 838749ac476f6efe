// Package telemetry provides constant-memory, allocation-free latency
// and pause metering for the evaluation harness: HdrHistogram-style
// log-linear bucketed histograms, cache-line-padded sharded recorders
// whose hot-path Record never allocates, lock-free snapshots with exact
// merge, histogram arithmetic for interval reporting, and MMU (minimum
// mutator utilization) curves computed from the pause timeline.
//
// The paper's headline claim is metered tail latency (Table 1, Fig. 5),
// which demands recording one sample per request without perturbing the
// heap under test. A slice of float64s — the previous implementation —
// grows with request count and is sorted inside the measured process;
// a bucketed histogram is O(buckets) memory regardless of sample count
// and answers percentile queries by a single cumulative walk.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
)

// Config fixes a histogram's value range and precision. Two histograms
// are layout-compatible (mergeable, subtractable) iff their Configs are
// equal after normalisation.
type Config struct {
	// MinValue is the lowest value resolved at full relative precision
	// (≥ 1). Values in [0, MinValue) are still recorded — they land in
	// the bottom buckets at absolute resolution ≤ MinValue·2^(1-Precision)
	// — so zero samples are counted, merely with coarser relative error.
	MinValue int64
	// MaxValue is the highest trackable value. Larger samples saturate:
	// they are counted in the top bucket (the exact observed maximum is
	// tracked separately).
	MaxValue int64
	// Precision is the number of sub-bucket resolution bits per octave:
	// each power-of-two range is split into 2^Precision sub-buckets, so
	// any reported quantile q̂ satisfies q ≤ q̂ ≤ q·(1 + 2^(1-Precision))
	// for the true sample q. Precision 8 bounds relative error by 1/128
	// (< 0.8%). Clamped to [2, 14]; 0 selects 8.
	Precision uint32
}

func (c Config) normalize() Config {
	if c.MinValue < 1 {
		c.MinValue = 1
	}
	if c.Precision == 0 {
		c.Precision = 8
	}
	if c.Precision < 2 {
		c.Precision = 2
	}
	if c.Precision > 14 {
		c.Precision = 14
	}
	min := c.MinValue * (1 << c.Precision)
	if c.MaxValue < 2*min {
		c.MaxValue = 2 * min
	}
	return c
}

// layout is the resolved bucket geometry shared by Histogram and
// Recorder shards.
type layout struct {
	cfg                Config
	unitMagnitude      uint32 // floor(log2(MinValue))
	subBucketCount     int32  // 1 << Precision
	subBucketHalfCount int32
	subBucketMask      int64
	bucketCount        int32 // octave buckets beyond the first
	countsLen          int32
}

func newLayout(cfg Config) layout {
	cfg = cfg.normalize()
	l := layout{cfg: cfg}
	// Unit resolution is MinValue >> (Precision-1), not MinValue: the
	// sub-buckets of the bottom octaves then resolve values at and just
	// above MinValue to the same relative error as everywhere else
	// (plain HDR layouts only discern ~MinValue granularity there).
	um := int(bits.Len64(uint64(cfg.MinValue))-1) - int(cfg.Precision-1)
	if um < 0 {
		um = 0
	}
	l.unitMagnitude = uint32(um)
	l.subBucketCount = 1 << cfg.Precision
	l.subBucketHalfCount = l.subBucketCount / 2
	l.subBucketMask = int64(l.subBucketCount-1) << l.unitMagnitude
	smallestUntrackable := int64(l.subBucketCount) << l.unitMagnitude
	n := int32(1)
	for smallestUntrackable <= cfg.MaxValue {
		if smallestUntrackable > math.MaxInt64/2 {
			n++
			break
		}
		smallestUntrackable <<= 1
		n++
	}
	l.bucketCount = n
	l.countsLen = (n + 1) * l.subBucketHalfCount
	return l
}

// clamp saturates a sample into the trackable range.
func (l *layout) clamp(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > l.cfg.MaxValue {
		return l.cfg.MaxValue
	}
	return v
}

// indexOf maps a clamped value to its bucket index. Pure arithmetic —
// no bounds beyond the layout's own, no allocation.
func (l *layout) indexOf(v int64) int32 {
	pow2 := int32(64 - bits.LeadingZeros64(uint64(v|l.subBucketMask)))
	bucketIdx := pow2 - int32(l.unitMagnitude) - int32(l.cfg.Precision)
	subBucketIdx := int32(v >> (uint32(bucketIdx) + l.unitMagnitude))
	idx := (bucketIdx+1)*l.subBucketHalfCount + subBucketIdx - l.subBucketHalfCount
	if idx >= l.countsLen { // MaxValue rounding at the top octave
		idx = l.countsLen - 1
	}
	return idx
}

// boundsOf returns the value range [lo, hi] covered by bucket idx.
func (l *layout) boundsOf(idx int32) (lo, hi int64) {
	bucketIdx := idx/l.subBucketHalfCount - 1
	subBucketIdx := idx%l.subBucketHalfCount + l.subBucketHalfCount
	if bucketIdx < 0 {
		subBucketIdx -= l.subBucketHalfCount
		bucketIdx = 0
	}
	shift := uint32(bucketIdx) + l.unitMagnitude
	lo = int64(subBucketIdx) << shift
	hi = lo + (int64(1) << shift) - 1
	return lo, hi
}

// Histogram is a single-writer log-linear histogram. For concurrent
// recording use Recorder; Histogram is the snapshot/merge/query type.
type Histogram struct {
	l      layout
	counts []int64
	total  int64
	sum    int64 // sum of clamped samples (exact mean of what was counted)
	min    int64 // exact observed minimum (clamped), valid when total > 0
	max    int64 // exact observed maximum (clamped), valid when total > 0
}

// NewHistogram creates an empty histogram with the given Config.
func NewHistogram(cfg Config) *Histogram {
	l := newLayout(cfg)
	return &Histogram{l: l, counts: make([]int64, l.countsLen), min: math.MaxInt64}
}

// Config returns the normalised configuration.
func (h *Histogram) Config() Config { return h.l.cfg }

// Record adds one sample.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n identical samples.
func (h *Histogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	v = h.l.clamp(v)
	h.counts[h.l.indexOf(v)] += n
	h.total += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all recorded (clamped) samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the exact maximum recorded sample (0 when empty). Samples
// above Config.MaxValue saturate, so Max never exceeds it.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the exact minimum recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Percentile returns the p-th percentile (0-100) using the same
// nearest-rank convention as stats.Percentile on a sorted slice: the
// sample with (1-based) rank ceil(p/100 · count). The returned value is
// the upper bound of that sample's bucket — within the documented
// relative error of the true sample — except at the extremes, where the
// exactly tracked minimum/maximum are returned. Returns 0 when empty.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.total {
		return h.max
	}
	var cum int64
	for i := int32(0); i < h.l.countsLen; i++ {
		cum += h.counts[i]
		if cum >= rank {
			_, hi := h.l.boundsOf(i)
			if hi < h.min {
				hi = h.min // rank 1 in the min's bucket
			}
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// compatible reports layout compatibility for arithmetic.
func (h *Histogram) compatible(o *Histogram) bool { return h.l.cfg == o.l.cfg }

// Add merges o into h (exact: counts, totals and sums add; min/max take
// the extremes). Panics if the configs differ.
func (h *Histogram) Add(o *Histogram) {
	if !h.compatible(o) {
		panic(fmt.Sprintf("telemetry: merging incompatible histograms (%+v vs %+v)", h.l.cfg, o.l.cfg))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.max > h.max {
			h.max = o.max
		}
		if o.min < h.min {
			h.min = o.min
		}
	}
}

// Subtract removes o from h — the interval-reporting primitive: the
// histogram of an interval is cumulative-at-end minus cumulative-at-
// start. Counts, totals and sums subtract exactly; min/max cannot be
// recovered exactly from bucket data, so they are re-derived from the
// surviving buckets (bucket-resolution accurate). Panics if the configs
// differ or if any bucket would go negative (o is not a sub-histogram).
func (h *Histogram) Subtract(o *Histogram) {
	if !h.compatible(o) {
		panic(fmt.Sprintf("telemetry: subtracting incompatible histograms (%+v vs %+v)", h.l.cfg, o.l.cfg))
	}
	for i, c := range o.counts {
		if h.counts[i] < c {
			panic("telemetry: Subtract would make a bucket count negative")
		}
	}
	for i, c := range o.counts {
		h.counts[i] -= c
	}
	h.total -= o.total
	h.sum -= o.sum
	h.min, h.max = math.MaxInt64, 0
	for i := int32(0); i < h.l.countsLen; i++ {
		if h.counts[i] == 0 {
			continue
		}
		lo, hi := h.l.boundsOf(i)
		if lo < h.min {
			h.min = lo
		}
		if hi > h.max {
			h.max = hi
		}
	}
	if h.max > h.l.cfg.MaxValue {
		h.max = h.l.cfg.MaxValue
	}
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// --- standard configs --------------------------------------------------------

// LatencyConfig is the standard request-latency histogram geometry:
// nanosecond samples, 1µs full resolution, 5-minute ceiling, <0.8%
// relative quantile error. ~3 KB of buckets per shard.
func LatencyConfig() Config {
	return Config{MinValue: 1000, MaxValue: 5 * 60 * 1e9, Precision: 8}
}

// PauseConfig is the standard GC-pause histogram geometry: nanosecond
// samples at full resolution from 1µs up to a 60 s ceiling.
func PauseConfig() Config {
	return Config{MinValue: 1000, MaxValue: 60 * 1e9, Precision: 8}
}
