package telemetry_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"lxr/internal/stats"
	"lxr/internal/telemetry"
)

// rng is a deterministic xorshift* generator so the 1e6-sample fixtures
// are reproducible.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// sample draws from a latency-shaped distribution: a log-uniform body
// between 100µs and 10ms with a heavy tail to ~2s (mimicking metered
// request latency under GC interference).
func (r *rng) sample() int64 {
	u := float64(r.next()%1e9) / 1e9
	v := 100e3 * math.Exp(u*math.Log(100)) // 100µs .. 10ms
	if r.next()%1000 < 5 {                 // 0.5% tail
		v *= 20 + float64(r.next()%200)
	}
	return int64(v)
}

// bucket is one non-empty bucket as Buckets reports it.
type bucket struct{ lo, hi, count int64 }

func buckets(h *telemetry.Histogram) []bucket {
	var out []bucket
	h.Buckets(func(lo, hi, count int64) { out = append(out, bucket{lo, hi, count}) })
	return out
}

// TestPercentileMatchesSort is the acceptance fixture: on 1e6 samples,
// histogram percentiles must match sort-based stats.Percentile within
// the documented bucket error bound, and exactly at p=100.
func TestPercentileMatchesSort(t *testing.T) {
	cfg := telemetry.LatencyConfig()
	h := telemetry.NewHistogram(cfg)
	r := rng(42)
	const n = 1_000_000
	xs := make([]float64, n)
	for i := range xs {
		v := r.sample()
		xs[i] = float64(v)
		h.Record(v)
	}
	if h.Count() != n {
		t.Fatalf("count %d != %d", h.Count(), n)
	}
	bound := cfg.ErrorBound()
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 99.99} {
		want := stats.Percentile(xs, p)
		got := float64(h.Percentile(p))
		if rel := math.Abs(got-want) / want; rel > bound {
			t.Errorf("p%v: hist %v vs sort %v, rel err %.5f > bound %.5f", p, got, want, rel, bound)
		}
		if got < want {
			t.Errorf("p%v: hist %v below true sample %v (must be an upper bound)", p, got, want)
		}
	}
	if got, want := float64(h.Percentile(100)), stats.Percentile(xs, 100); got != want {
		t.Errorf("p100 must be exact: hist %v vs sort %v", got, want)
	}
	if mean := h.Mean(); math.Abs(mean-stats.Mean(xs))/stats.Mean(xs) > 1e-9 {
		t.Errorf("mean %v vs %v", mean, stats.Mean(xs))
	}
}

// TestMergeEquivalence: a sharded Recorder snapshot must be exactly the
// histogram of the union of all lanes' samples.
func TestMergeEquivalence(t *testing.T) {
	cfg := telemetry.LatencyConfig()
	rec := telemetry.NewRecorder(cfg, 8)
	ref := telemetry.NewHistogram(cfg)
	r := rng(7)
	for i := 0; i < 200_000; i++ {
		v := r.sample()
		rec.Record(i, v) // round-robin over lanes, including modulo wrap
		ref.Record(v)
	}
	snap := rec.Snapshot()
	if snap.Count() != ref.Count() || snap.Sum() != ref.Sum() ||
		snap.Min() != ref.Min() || snap.Max() != ref.Max() {
		t.Fatalf("aggregate mismatch: snap(%d,%d,%d,%d) ref(%d,%d,%d,%d)",
			snap.Count(), snap.Sum(), snap.Min(), snap.Max(),
			ref.Count(), ref.Sum(), ref.Min(), ref.Max())
	}
	for _, p := range []float64{0, 50, 90, 99, 99.9, 100} {
		if snap.Percentile(p) != ref.Percentile(p) {
			t.Errorf("p%v: snapshot %d != reference %d", p, snap.Percentile(p), ref.Percentile(p))
		}
	}
}

// TestAddSubtractRoundTrip: (A+B)-B == A bucket-for-bucket — the
// interval-reporting identity.
func TestAddSubtractRoundTrip(t *testing.T) {
	cfg := telemetry.PauseConfig()
	a := telemetry.NewHistogram(cfg)
	b := telemetry.NewHistogram(cfg)
	r := rng(99)
	for i := 0; i < 50_000; i++ {
		a.Record(r.sample())
		b.Record(r.sample() / 3)
	}
	c := a.Clone()
	c.Add(b)
	if c.Count() != a.Count()+b.Count() || c.Sum() != a.Sum()+b.Sum() {
		t.Fatalf("add: count/sum not additive")
	}
	c.Subtract(b)
	ba, bc := buckets(a), buckets(c)
	if c.Count() != a.Count() || c.Sum() != a.Sum() || len(bc) != len(ba) {
		t.Fatalf("round trip: count %d sum %d in %d buckets vs count %d sum %d in %d",
			c.Count(), c.Sum(), len(bc), a.Count(), a.Sum(), len(ba))
	}
	for i := range ba {
		if ba[i] != bc[i] {
			t.Fatalf("bucket %d: %+v vs %+v", i, bc[i], ba[i])
		}
	}
	for _, p := range []float64{50, 99, 99.9} {
		if c.Percentile(p) != a.Percentile(p) {
			t.Errorf("p%v differs after round trip: %d vs %d", p, c.Percentile(p), a.Percentile(p))
		}
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines with
// snapshots racing the writers (run under -race in CI), then verifies
// the quiescent snapshot is exact.
func TestRecorderConcurrent(t *testing.T) {
	cfg := telemetry.LatencyConfig()
	rec := telemetry.NewRecorder(cfg, 4) // fewer lanes than writers: contended adds
	const writers, per = 8, 20_000
	var wg sync.WaitGroup
	var wantSum int64
	sums := make([]int64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng(w + 1)
			for i := 0; i < per; i++ {
				v := r.sample()
				sums[w] += v
				rec.Record(w, v)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // racing reader
		defer close(done)
		for i := 0; i < 100; i++ {
			s := rec.Snapshot()
			if s.Count() > writers*per {
				t.Errorf("snapshot over-counts: %d", s.Count())
				return
			}
			s.Percentile(99)
		}
	}()
	wg.Wait()
	<-done
	for _, s := range sums {
		wantSum += s
	}
	snap := rec.Snapshot()
	if snap.Count() != writers*per {
		t.Fatalf("lost samples: %d != %d", snap.Count(), writers*per)
	}
	if snap.Sum() != wantSum {
		t.Fatalf("sum mismatch: %d != %d", snap.Sum(), wantSum)
	}
}

// TestZeroAndSaturation: zeros are recordable (idle-worker samples) and
// oversized samples saturate at MaxValue.
func TestZeroAndSaturation(t *testing.T) {
	cfg := telemetry.Config{MinValue: 1, MaxValue: 1 << 32, Precision: 7}
	h := telemetry.NewHistogram(cfg)
	h.Record(0)
	h.Record(1 << 60) // above MaxValue
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 0 {
		t.Errorf("min %d, want 0", h.Min())
	}
	if h.Max() != cfg.MaxValue {
		t.Errorf("max %d, want saturation at %d", h.Max(), cfg.MaxValue)
	}
	if h.Percentile(100) != cfg.MaxValue {
		t.Errorf("p100 %d", h.Percentile(100))
	}
	if p := h.Percentile(50); p != 0 {
		t.Errorf("p50 %d, want 0", p)
	}
}

// TestExportInvariants: bucket counts sum to Count and bucket ranges
// ascend without overlap.
func TestExportInvariants(t *testing.T) {
	h := telemetry.NewHistogram(telemetry.LatencyConfig())
	r := rng(5)
	for i := 0; i < 10_000; i++ {
		h.Record(r.sample())
	}
	var sum int64
	lastHi := int64(-1)
	for _, b := range buckets(h) {
		if b.lo <= lastHi {
			t.Fatalf("bucket ranges overlap: lo %d after hi %d", b.lo, lastHi)
		}
		if b.hi < b.lo || b.count <= 0 {
			t.Fatalf("bad bucket %+v", b)
		}
		lastHi = b.hi
		sum += b.count
	}
	if sum != h.Count() {
		t.Fatalf("bucket counts %d != count %d", sum, h.Count())
	}
}

// TestBucketContainment: every recorded value must fall inside the
// bucket range Buckets reports for it.
func TestBucketContainment(t *testing.T) {
	cfg := telemetry.Config{MinValue: 1000, MaxValue: 1e9, Precision: 6}
	for _, v := range []int64{0, 1, 999, 1000, 1001, 4096, 65537, 1e6, 987654321, 1e9} {
		h := telemetry.NewHistogram(cfg)
		h.Record(v)
		bs := buckets(h)
		if len(bs) != 1 {
			t.Fatalf("v=%d: %d buckets", v, len(bs))
		}
		b := bs[0]
		if v < b.lo || v > b.hi {
			t.Errorf("v=%d outside its bucket [%d,%d]", v, b.lo, b.hi)
		}
		if v >= cfg.MinValue && v <= cfg.MaxValue {
			width := float64(b.hi - b.lo + 1)
			if rel := width / float64(v); rel > 2*cfg.ErrorBound() {
				t.Errorf("v=%d: bucket width %v too coarse (rel %.4f)", v, width, rel)
			}
		}
	}
}

func TestMMU(t *testing.T) {
	msec := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	// No pauses: full utilization everywhere.
	for _, pt := range telemetry.MMU(nil, msec(100), nil) {
		if pt.Utilization != 1 {
			t.Fatalf("no pauses: util %v at %v", pt.Utilization, pt.Window)
		}
	}

	// One 10ms pause at t=10 in a 100ms run.
	one := []telemetry.Interval{{Start: msec(10), Dur: msec(10)}}
	pts := telemetry.MMU(one, msec(100), []time.Duration{msec(10), msec(20), msec(200)})
	if !approx(pts[0].Utilization, 0) {
		t.Errorf("w=10ms: want 0, got %v", pts[0].Utilization)
	}
	if !approx(pts[1].Utilization, 0.5) {
		t.Errorf("w=20ms: want 0.5, got %v", pts[1].Utilization)
	}
	if !approx(pts[2].Utilization, 0.9) { // window > run: whole-run utilization
		t.Errorf("w=200ms: want 0.9, got %v", pts[2].Utilization)
	}

	// Two 5ms pauses at t=10 and t=18: the 13ms window [10,23] holds
	// both entirely — 10ms of STW.
	two := []telemetry.Interval{{Start: msec(10), Dur: msec(5)}, {Start: msec(18), Dur: msec(5)}}
	pts = telemetry.MMU(two, msec(100), []time.Duration{msec(13)})
	if want := 1 - 10.0/13.0; !approx(pts[0].Utilization, want) {
		t.Errorf("w=13ms: want %v, got %v", want, pts[0].Utilization)
	}

	// Pause at the very start, window clamped into the run.
	edge := []telemetry.Interval{{Start: 0, Dur: msec(4)}}
	pts = telemetry.MMU(edge, msec(100), []time.Duration{msec(8)})
	if !approx(pts[0].Utilization, 0.5) {
		t.Errorf("edge: want 0.5, got %v", pts[0].Utilization)
	}
}

// TestRecordNoAlloc is the hard acceptance gate: the hot-path Record
// must be 0 allocs/op (BenchmarkRecord -benchmem verifies the same in
// the CI bench job).
func TestRecordNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rec := telemetry.NewRecorder(telemetry.LatencyConfig(), 4)
	r := rng(11)
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		rec.Record(i, r.sample())
		i++
	}); n != 0 {
		t.Fatalf("Record allocates: %.2f allocs/op", n)
	}
	h := telemetry.NewHistogram(telemetry.LatencyConfig())
	if n := testing.AllocsPerRun(2000, func() {
		h.Record(r.sample())
		_ = h.Count()
	}); n != 0 {
		t.Fatalf("Histogram.Record allocates: %.2f allocs/op", n)
	}
}

// BenchmarkRecord measures the hot-path cost and — via -benchmem —
// proves Record is allocation-free.
func BenchmarkRecord(b *testing.B) {
	rec := telemetry.NewRecorder(telemetry.LatencyConfig(), 8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		r := rng(12345)
		i := 0
		for pb.Next() {
			rec.Record(i, r.sample())
			i++
		}
	})
}

// BenchmarkSnapshot measures merge cost at the standard geometry.
func BenchmarkSnapshot(b *testing.B) {
	rec := telemetry.NewRecorder(telemetry.LatencyConfig(), 8)
	r := rng(3)
	for i := 0; i < 100_000; i++ {
		rec.Record(i, r.sample())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Snapshot()
	}
}
