// Package harness runs the paper's experiments: it instantiates
// collectors, sizes workloads, calibrates request rates, executes runs,
// and renders each of the paper's tables and figures from the measured
// data (see EXPERIMENTS.md for the index).
package harness

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"lxr"
	"lxr/internal/core"
	"lxr/internal/gcwork"
	"lxr/internal/telemetry"
	"lxr/internal/trace"
	"lxr/internal/vm"
	"lxr/internal/workload"
)

// Collector identifiers (lxr.CollectorKind values, as the strings the
// experiment tables and -json output carry).
const (
	CG1        = string(lxr.CollectorG1)
	CLXR       = string(lxr.CollectorLXR)
	CShen      = string(lxr.CollectorShenandoah)
	CZGC       = string(lxr.CollectorZGC)
	CSerial    = string(lxr.CollectorSerial)
	CParallel  = string(lxr.CollectorParallel)
	CSemiSpace = string(lxr.CollectorSemiSpace)
	CImmix     = string(lxr.CollectorImmix)
	CImmixWB   = string(lxr.CollectorImmixWB)
	CLXRNoSATB = string(lxr.CollectorLXRNoSATB)
	CLXRNoLD   = string(lxr.CollectorLXRNoLD)
	CLXRSTW    = string(lxr.CollectorLXRSTW)
)

// newPlan builds a collector under the session options through
// lxr.NewPlan. Returns nil when the collector cannot run at this heap
// size (a missing data point); any other construction error is a
// programming error in the experiment tables and panics.
func newPlan(id string, heapBytes int, opts Options) vm.Plan {
	plan, err := lxr.NewPlan(lxr.CollectorKind(id), core.Config{
		HeapBytes: heapBytes,
		GCThreads: opts.GCThreads,
		Tracer:    opts.tracer,
	})
	if errors.Is(err, lxr.ErrMinHeap) {
		return nil
	}
	if err != nil {
		panic(err)
	}
	return plan
}

// Options configure a harness session.
type Options struct {
	Scale     workload.Scale
	GCThreads int
	// Interval, when non-zero, runs a periodic reporter beside every
	// execution: each window's pause and request-latency percentiles
	// are computed by differencing cumulative histogram snapshots
	// (telemetry.Subtract) and collected in RunResult.Intervals.
	Interval time.Duration
	Out      io.Writer
	// Bench filters experiments to a subset of benchmarks (nil = all).
	Bench []string
	// Record, when non-nil, observes every completed RunOne execution
	// (cmd/lxr-bench -json collects RunSummary digests through it).
	Record func(*RunResult)
	// Trace, when non-nil, attaches the structured GC event tracer
	// (internal/trace) to every RunOne execution.
	Trace *TraceOptions

	// tracer is the per-run tracer instance RunOne threads through
	// newPlan into the plan; never set by callers.
	tracer *trace.Tracer
}

// TraceOptions configure the GC event tracer for a run.
type TraceOptions struct {
	// Flight, when positive, selects flight-recorder mode: each shard
	// ring retains only the trailing Flight events (overwrite-oldest),
	// and Dump fires when an interval window flags drift or the run
	// fails — at most once per run. 0 selects full-run capture, where
	// Dump fires once at the end of every run.
	Flight int
	// Cap overrides the per-shard ring capacity for full-run capture
	// (0 = trace.DefaultShardCap; rounded up to a power of two).
	Cap int
	// Dump receives the run's tracer at the dump point. label is
	// "bench/collector"; reason is "end", "failed", or
	// "drift:window-N". Required: a nil Dump disables tracing.
	Dump func(label, reason string, tr *trace.Tracer)
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Scale == (workload.Scale{}) {
		o.Scale = workload.DefaultScale()
	}
	if o.GCThreads == 0 {
		o.GCThreads = 4
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

func (o Options) selected(specs []workload.Spec) []workload.Spec {
	if len(o.Bench) == 0 {
		return specs
	}
	want := map[string]bool{}
	for _, b := range o.Bench {
		want[b] = true
	}
	out := []workload.Spec{}
	for _, s := range specs {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// RunResult is one (benchmark, collector, heap) execution.
type RunResult struct {
	Bench     string
	Collector string
	HeapBytes int
	OK        bool // false: collector cannot run (missing data point)

	Wall time.Duration
	QPS  float64
	// Latency is the merged request-latency histogram in nanoseconds
	// (request workloads only; nil for batch runs).
	Latency *telemetry.Histogram
	Pauses  []vm.Pause
	// PauseHist holds the per-phase pause-duration histograms (ns),
	// keyed by pause kind ("young", "mixed", "rc+mark", ...).
	PauseHist map[string]*telemetry.Histogram
	// MMU is the minimum-mutator-utilization curve computed from the
	// pause timeline over telemetry.DefaultMMUWindows.
	MMU      []telemetry.MMUPoint
	Counters map[string]int64
	GCWork   time.Duration
	ConcWork time.Duration
	MutBusy  time.Duration

	mergedPause *telemetry.Histogram // lazy union of PauseHist

	// Scheduler utilization (collectors built on the gcwork pool).
	WorkerStats []gcwork.WorkerStat // per-worker in-pause items

	// Intervals holds the periodic reporter's per-window digests
	// (Options.Interval; nil otherwise).
	Intervals []IntervalReport
}

// gcTelemetry is implemented by plans exposing gcwork pool utilization.
type gcTelemetry interface {
	GCWorkerStats() []gcwork.WorkerStat
}

// PausePercentile returns the p-th percentile pause in milliseconds,
// from the union of the per-phase pause histograms (all pauses
// regardless of phase), merged once (bucket error documented on
// telemetry.Config; exact at p=100).
func (r *RunResult) PausePercentile(p float64) float64 {
	if r.mergedPause == nil {
		r.mergedPause = telemetry.NewHistogram(telemetry.PauseConfig())
		for _, h := range r.PauseHist {
			r.mergedPause.Add(h)
		}
	}
	return float64(r.mergedPause.Percentile(p)) / float64(time.Millisecond)
}

// LatencyPercentileMS returns the p-th percentile request latency in
// milliseconds (0 for batch runs).
func (r *RunResult) LatencyPercentileMS(p float64) float64 {
	if r.Latency == nil {
		return 0
	}
	return float64(r.Latency.Percentile(p)) / float64(time.Millisecond)
}

// TotalSTW sums stop-the-world time.
func (r *RunResult) TotalSTW() time.Duration {
	var t time.Duration
	for _, p := range r.Pauses {
		t += p.Dur
	}
	return t
}

// RunOne executes one benchmark under one collector at heapFactor times
// the scaled minimum heap. rate > 0 meters request arrivals (request
// workloads only).
func RunOne(spec workload.Spec, collector string, heapFactor float64, rate float64, opts Options) *RunResult {
	opts = opts.WithDefaults()
	sz := opts.Scale.Size(spec)
	heap := int(heapFactor * float64(sz.MinHeapBytes))
	res := &RunResult{Bench: spec.Name, Collector: collector, HeapBytes: heap}
	if opts.Record != nil {
		defer func() { opts.Record(res) }()
	}
	label := fmt.Sprintf("%s/%s", spec.Name, collector)
	var dump func(reason string)
	if opts.Trace != nil && opts.Trace.Dump != nil {
		cap := opts.Trace.Cap
		if opts.Trace.Flight > 0 {
			cap = opts.Trace.Flight
		}
		tr := trace.New(trace.Config{ShardCap: cap, Flight: opts.Trace.Flight > 0})
		opts.tracer = tr
		// At most one dump per run: a drift dump wins over the failure
		// dump, which wins over nothing (flight mode never dumps a
		// healthy run).
		var once sync.Once
		dump = func(reason string) {
			once.Do(func() { opts.Trace.Dump(label, reason, tr) })
		}
	}
	plan := newPlan(collector, heap, opts)
	if plan == nil {
		return res
	}
	v := vm.New(plan, 8)
	v.SetTracer(opts.tracer) // before the first mutator registers
	defer v.Shutdown()       // idempotent; the explicit call below is first
	onDrift := func(rep IntervalReport) {
		if dump != nil && opts.Trace.Flight > 0 {
			dump(fmt.Sprintf("drift:window-%d", rep.Index))
		}
	}
	failed := false
	// runStart must be the same epoch Wall is measured from, or the MMU
	// computation would mis-place pauses inside [0, Wall]; the workload
	// returns its own start for exactly this.
	var runStart time.Time
	if spec.Request != nil && rate > 0 {
		rec := workload.NewLatencyRecorder(sz)
		var rep *intervalReporter
		if opts.Interval > 0 {
			rep = startIntervalReporter(opts.Interval, v.Stats, rec, opts.Out, label, onDrift)
		}
		rr := workload.RunRequestsRec(v, sz, rate, rec)
		if rep != nil {
			res.Intervals = rep.stopAndCollect()
		}
		runStart = rr.Start
		res.Wall = rr.Wall
		res.QPS = rr.QPS
		res.Latency = rr.Latency
		failed = rr.Failed
	} else {
		var rep *intervalReporter
		if opts.Interval > 0 {
			rep = startIntervalReporter(opts.Interval, v.Stats, nil, opts.Out, label, onDrift)
		}
		br := workload.RunBatch(v, sz)
		if rep != nil {
			res.Intervals = rep.stopAndCollect()
		}
		runStart = br.Start
		res.Wall = br.Wall
		failed = br.Failed
	}
	res.OK = !failed
	// Shut down before reading stats so the concurrent thread's final
	// quanta are fully accounted.
	v.Shutdown()
	res.Pauses = v.Stats.Pauses()
	res.PauseHist = v.Stats.PauseHistograms()
	res.MMU = telemetry.MMU(pauseIntervals(res.Pauses, runStart), res.Wall, nil)
	res.Counters = v.Stats.Counters()
	res.GCWork = v.Stats.GCWork()
	res.ConcWork = v.Stats.ConcurrentWork()
	res.MutBusy = v.Stats.MutatorBusy()
	if t, ok := plan.(gcTelemetry); ok {
		res.WorkerStats = t.GCWorkerStats()
	}
	if dump != nil {
		// All collector goroutines are down: the drain is quiescent.
		if failed {
			dump("failed")
		} else if opts.Trace.Flight == 0 {
			dump("end")
		}
	}
	return res
}

// --- request-rate calibration --------------------------------------------------

var (
	calMu    sync.Mutex
	calCache = map[string]float64{}
)

// CalibrateRate measures the workload's closed-loop capacity on the
// Parallel collector in a roomy heap and returns 70% of it: the metered
// arrival rate every collector is then driven at, so all collectors face
// an identical load (as the paper's fixed request streams do).
func CalibrateRate(spec workload.Spec, opts Options) float64 {
	opts = opts.WithDefaults()
	key := fmt.Sprintf("%s/%d", spec.Name, opts.Scale.HeapDiv)
	calMu.Lock()
	if r, ok := calCache[key]; ok {
		calMu.Unlock()
		return r
	}
	calMu.Unlock()

	sz := opts.Scale.Size(spec)
	heap := 4 * sz.MinHeapBytes
	v := vm.New(newPlan(CParallel, heap, Options{GCThreads: opts.GCThreads}), 8)
	probe := sz.Requests / 5
	if probe < 100 {
		probe = 100
	}
	cap := workload.MeasureCapacity(v, sz, probe)
	v.Shutdown()
	rate := 0.70 * cap
	calMu.Lock()
	calCache[key] = rate
	calMu.Unlock()
	return rate
}

// latPercentiles extracts the standard percentile set in ms from a
// latency histogram (zeros when nil).
func latPercentiles(h *telemetry.Histogram) (p50, p90, p99, p999, p9999 float64) {
	if h == nil {
		return 0, 0, 0, 0, 0
	}
	q := func(p float64) float64 { return float64(h.Percentile(p)) / float64(time.Millisecond) }
	return q(50), q(90), q(99), q(99.9), q(99.99)
}

// pauseIntervals converts pause records to run-relative intervals for
// the MMU computation.
func pauseIntervals(pauses []vm.Pause, runStart time.Time) []telemetry.Interval {
	out := make([]telemetry.Interval, 0, len(pauses))
	for _, p := range pauses {
		out = append(out, telemetry.Interval{Start: p.Start.Sub(runStart), Dur: p.Dur})
	}
	return out
}
