package workload

import (
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/telemetry"
	"lxr/internal/vm"
)

// RequestResult reports a metered request run (DaCapo Chopin
// methodology, §4): per-request latencies include computation,
// interruptions (GC), and queueing behind an open-loop arrival process.
//
// Latencies are recorded into a constant-memory bucketed histogram, not
// a per-request slice: the old []float64 grew with the request count
// and was sorted inside the measured process, perturbing the heap under
// test and capping run length; the histogram is O(buckets) however many
// requests arrive (telemetry.LatencyConfig documents the bucket error).
type RequestResult struct {
	Start   time.Time // arrival epoch the run (and Wall) is measured from
	Wall    time.Duration
	QPS     float64
	Latency *telemetry.Histogram // ns per request; nil for batch runs
	Failed  bool                 // collector could not sustain the workload (OOM)
}

// processRequest performs one request: allocate the request's working
// set with the spec demographics and touch payload (the computation).
func processRequest(c *mutCtx, prof *RequestProfile) {
	m := c.m
	var sum uint64
	for i := 0; i < prof.ObjsPerReq; i++ {
		c.allocOne()
	}
	// Compute over the most recent objects (cache traffic).
	cur := m.Roots[rootTransient]
	for i := 0; i < prof.WorkPerReq && !cur.IsNil(); i++ {
		sum += m.ReadPayload(cur, 0)
		if i%8 == 7 {
			cur = m.Load(cur, 0)
		}
	}
	m.WritePayload(m.Roots[rootTransient], 0, sum)
}

// MeasureCapacity runs a closed-loop probe (no arrival metering) and
// returns requests/second. The harness calibrates the open-loop arrival
// rate from a capacity probe on a reference collector so that every
// collector faces the identical load (the paper drives all collectors
// with the same request stream).
func MeasureCapacity(v *vm.VM, sz Sized, probeRequests int) float64 {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < sz.Mutators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := v.RegisterMutator(numRoots)
			defer m.Deregister()
			defer runGuard(&failed)
			c := setupMature(m, sz, 1/float64(sz.Mutators))
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= int64(probeRequests) {
					return
				}
				processRequest(c, sz.Request.Request())
			}
		}()
	}
	wg.Wait()
	return float64(probeRequests) / time.Since(start).Seconds()
}

// Request returns the profile (helper for nil-safety symmetry).
func (p *RequestProfile) Request() *RequestProfile { return p }

// NewLatencyRecorder builds the latency recorder RunRequestsRec expects
// for a workload of sz.Mutators workers.
func NewLatencyRecorder(sz Sized) *telemetry.Recorder {
	return telemetry.NewRecorder(telemetry.LatencyConfig(), sz.Mutators)
}

// RunRequestsRec executes the metered open-loop workload: requests arrive
// at ratePerSec into an unbounded queue; sz.Mutators workers serve them.
// Request i's latency is measured from its scheduled arrival to its
// completion, so GC interruptions delay both the active request and
// everything queued behind it — the paper's central measurement. This
// is the coordinated-omission correction: a pause that stalls a worker
// charges every request scheduled behind it for its queueing delay,
// instead of silently thinning the arrival stream.
//
// Each worker records into its own histogram shard, so the metering
// itself is lock-free and allocation-free per request: nothing on this
// path grows with the request count or disturbs the collector under
// measurement. rec is the caller's latency recorder (as built by
// NewLatencyRecorder), so a periodic reporter can snapshot the latency
// distribution mid-run — Recorder.Snapshot is lock-free against the
// recording workers.
func RunRequestsRec(v *vm.VM, sz Sized, ratePerSec float64, rec *telemetry.Recorder) RequestResult {
	n := sz.Requests
	interval := time.Duration(float64(time.Second) / ratePerSec)

	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	start := time.Now().Add(10 * time.Millisecond) // arrival epoch
	for w := 0; w < sz.Mutators; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			m := v.RegisterMutator(numRoots)
			defer m.Deregister()
			defer runGuard(&failed)
			c := setupMature(m, sz, 1/float64(sz.Mutators))
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				arrival := start.Add(time.Duration(i) * interval)
				if wait := time.Until(arrival); wait > 0 {
					m.BlockedSleep(wait)
				}
				processRequest(c, sz.Request)
				rec.Record(shard, int64(time.Since(arrival)))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	return RequestResult{
		Start:   start,
		Wall:    wall,
		QPS:     float64(n) / wall.Seconds(),
		Latency: rec.Snapshot(),
		Failed:  failed.Load(),
	}
}
