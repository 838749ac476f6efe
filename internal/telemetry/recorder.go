package telemetry

import (
	"math"
	"sync/atomic"
)

// shardPad pads each shard's hot header to a cache line so concurrent
// recorders on adjacent shards never false-share.
const shardPad = 64

// shard is one writer lane of a Recorder. The counts slice is written
// with atomic adds; the header fields keep the shard's exact aggregate
// state. Each shard's counts are a separate allocation, so two shards'
// buckets never share a cache line either.
type shard struct {
	counts []int64 // atomic

	total atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	min   atomic.Int64

	_ [shardPad]byte
}

// Recorder is a sharded concurrent histogram: per-worker/per-mutator
// writer lanes with an allocation-free Record hot path, and a lock-free
// Snapshot that merges the lanes into a queryable Histogram.
//
// Writers never block and never allocate: Record is bucket arithmetic
// plus one atomic add per field it touches. Snapshot reads the shards
// with atomic loads while recording continues; because every field is
// monotone under concurrent Record (counts and sums only grow, max only
// rises, min only falls), a snapshot is always the exact merge of some
// prefix of each lane's samples — samples racing with the snapshot land
// wholly in the next one.
type Recorder struct {
	l      layout
	shards []shard
}

// NewRecorder creates a recorder with the given geometry and shard
// count (writer lanes). Callers route each writer to its own shard via
// the shard argument of Record; shard indices are reduced modulo the
// lane count, so any stable per-thread index is safe.
func NewRecorder(cfg Config, shards int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	l := newLayout(cfg)
	r := &Recorder{l: l, shards: make([]shard, shards)}
	for i := range r.shards {
		r.shards[i].counts = make([]int64, l.countsLen)
		r.shards[i].min.Store(math.MaxInt64)
	}
	return r
}

// Config returns the normalised configuration.
func (r *Recorder) Config() Config { return r.l.cfg }

// Record adds one sample on the given writer lane. It performs no
// allocation and acquires no lock: the metered request path calls this
// once per request without perturbing the heap under test.
func (r *Recorder) Record(shardIdx int, v int64) {
	s := &r.shards[uint(shardIdx)%uint(len(r.shards))]
	v = r.l.clamp(v)
	atomic.AddInt64(&s.counts[r.l.indexOf(v)], 1)
	s.total.Add(1)
	s.sum.Add(v)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := s.min.Load()
		if v >= old || s.min.CompareAndSwap(old, v) {
			break
		}
	}
}

// Snapshot merges all lanes into a new Histogram without stopping
// writers. Bucket counts are authoritative: the snapshot's Count is the
// sum of the bucket loads, so percentile queries are always internally
// consistent. A sample racing with the snapshot may contribute its
// bucket increment but not yet its sum/min/max header update; min and
// max are therefore widened by the observed buckets' bounds, and Sum
// may trail Count by the in-flight samples. Once writers quiesce (the
// harness snapshots after the run completes), the merge is exact.
func (r *Recorder) Snapshot() *Histogram {
	h := NewHistogram(r.l.cfg)
	for i := range r.shards {
		s := &r.shards[i]
		min, max := s.min.Load(), s.max.Load()
		sum := s.sum.Load()
		var total int64
		for j := range s.counts {
			c := atomic.LoadInt64(&s.counts[j])
			if c == 0 {
				continue
			}
			h.counts[j] += c
			total += c
			// A bucket lying wholly outside [min, max] proves a racing
			// sample published its bucket before its header update;
			// widen to the bucket bound. Buckets straddling the header
			// values leave them untouched, so a quiescent snapshot
			// keeps the exact extremes.
			lo, hi := r.l.boundsOf(int32(j))
			if hi < min {
				min = hi
			}
			if lo > max {
				max = lo
			}
		}
		if total == 0 {
			continue
		}
		h.total += total
		h.sum += sum
		if max > h.max {
			h.max = max
		}
		if min < h.min {
			h.min = min
		}
	}
	if h.max > r.l.cfg.MaxValue {
		h.max = r.l.cfg.MaxValue
	}
	return h
}
