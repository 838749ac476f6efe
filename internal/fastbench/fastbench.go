// Package fastbench is the mutator fast-path microbenchmark family:
// ns/allocation (small, medium, large), ns/pointer-store on the barrier
// fast path, ns/pointer-store on the slow path (the first log of each
// field per epoch), and ns/line-scan for the Immix recycled-block span
// walk — measured for LXR and the barrier-bearing baselines.
//
// These are the paths the paper's design lives or dies on (§3, Table 7:
// bump allocation plus a barrier whose fast path is a single metadata
// load), so the family is tracked: cmd/lxr-bench -fastpath exports it
// as BENCH_fastpath.json and the benchmark's ledger reports its LXR
// rows as fastbench.*.
//
// Measurement protocol: every benchmark takes repeated timed samples of
// a fixed op-count loop on a fresh heap, with any collections forced
// between samples (never inside them) so each sample is a pure fast- or
// slow-path interval. The report keeps the min..max interval over
// samples beside the mean; the host's speed changes on a longer scale
// than one benchmark, so two reports differ by more than either's
// interval on identical code (EXPERIMENTS.md).
package fastbench

import (
	"fmt"
	"io"
	"time"

	"lxr/internal/baselines"
	"lxr/internal/core"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Collectors is the default collector set: LXR plus the barrier-bearing
// baselines (Immix+WB carries the field-logging barrier with discarded
// captures — the Table 7 barrier-overhead substrate; G1 carries its
// card-table analogue plus SATB). Barrier-less Immix anchors the
// overhead comparison.
var Collectors = []string{"LXR", "Immix", "Immix+WB", "G1"}

// Benches is the family, in report order. store/slow is only measurable
// for collectors whose pauses re-arm logged fields (all three
// barrier-bearing ones here); linescan is collector-independent and
// reported once under the pseudo-collector "heap". The "+trace" rows
// re-measure LXR's allocation and pointer-store paths with the event
// tracer armed (full-capacity rings, no consumer): the delta against
// the matching untraced rows is the cost of live event recording; the
// untraced rows themselves carry the tracer's dormant nil check.
var Benches = []string{"alloc/small", "alloc/medium", "alloc/large", "store/fast", "store/slow", "linescan",
	"alloc/small+trace", "store/fast+trace"}

// Options configures a family run.
type Options struct {
	// HeapBytes is the per-benchmark heap (default 64 MB — large enough
	// that no sample can cross an allocation trigger).
	HeapBytes int
	// Samples is the number of timed samples per benchmark (default 5,
	// plus one discarded warmup).
	Samples int
	// Collectors restricts the collector set (default Collectors).
	Collectors []string
	// Log, when set, receives one line per completed benchmark.
	Log io.Writer
}

func (o *Options) setDefaults() {
	if o.HeapBytes == 0 {
		o.HeapBytes = 64 << 20
	}
	if o.Samples == 0 {
		o.Samples = 5
	}
	if o.Collectors == nil {
		o.Collectors = Collectors
	}
}

// Result is one benchmark's repeated samples for one collector.
type Result struct {
	Collector string    `json:"collector"`
	Bench     string    `json:"bench"`
	Ops       int       `json:"ops_per_sample"`
	SamplesNS []float64 `json:"samples_ns_per_op"`
	MinNS     float64   `json:"min_ns_per_op"`
	MeanNS    float64   `json:"mean_ns_per_op"`
	MaxNS     float64   `json:"max_ns_per_op"`
}

// Report is the BENCH_fastpath.json payload. Kind tags the format so
// the compare tool can sniff it.
type Report struct {
	Kind    string   `json:"kind"` // "fastpath"
	Results []Result `json:"results"`
}

// Run executes the family and returns the report.
func Run(o Options) Report {
	o.setDefaults()
	rep := Report{Kind: "fastpath"}
	emit := func(r Result) {
		rep.Results = append(rep.Results, r)
		if o.Log != nil {
			fmt.Fprintf(o.Log, "%-10s %-12s %10.1f ns/op  (min %.1f, max %.1f, %d samples x %d ops)\n",
				r.Collector, r.Bench, r.MeanNS, r.MinNS, r.MaxNS, len(r.SamplesNS), r.Ops)
		}
	}
	hasLXR := false
	for _, c := range o.Collectors {
		if c == "LXR" {
			hasLXR = true
		}
		emit(runAlloc(o, c, "alloc/small", smallPayload, false))
		emit(runAlloc(o, c, "alloc/medium", mediumPayload, false))
		emit(runAlloc(o, c, "alloc/large", largePayload, false))
		emit(runStoreFast(o, c, false))
		emit(runStoreSlow(o, c))
	}
	if hasLXR {
		// Tracing-on variants use distinct bench names so the compare
		// tool never pairs them with the untraced rows: the parity gate
		// covers tracing-off, these rows track the armed cost.
		emit(runAlloc(o, "LXR", "alloc/small+trace", smallPayload, true))
		emit(runStoreFast(o, "LXR", true))
	}
	emit(runLineScan(o))
	return rep
}

// newPlan builds a fresh plan instance for one benchmark. traced arms
// the event tracer (LXR only — the tracing-on variants) with a
// full-capacity ring that is never drained, so recording proceeds at
// its steady-state overwrite cost.
func newPlan(name string, heapBytes int, traced bool) (vm.Plan, *trace.Tracer) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New(trace.Config{})
	}
	switch name {
	case "LXR":
		return core.New(core.Config{HeapBytes: heapBytes, GCThreads: 2, Tracer: tr}), tr
	case "Immix":
		return baselines.NewImmix(heapBytes, 2, false), nil
	case "Immix+WB":
		return baselines.NewImmix(heapBytes, 2, true), nil
	case "G1":
		return baselines.NewG1(heapBytes, 2), nil
	}
	panic("fastbench: unknown collector " + name)
}

// Object sizes: small is a 32 B cell (2-word header + 1 ref + 8 B
// payload); medium is ~1 KB (above the 256 B line threshold, so it
// exercises the dynamic-overflow path); large is 20 KB (above the 16 KB
// half-block threshold, so it goes to the large object space).
const (
	smallPayload  = 8
	mediumPayload = 1008
	largePayload  = 20 << 10

	// sampleVolume bounds the bytes allocated per timed sample, well
	// under every collector's trigger budget on the default heap.
	sampleVolume = 2 << 20
)

func summarize(collector, bench string, ops int, samples []float64) Result {
	r := Result{Collector: collector, Bench: bench, Ops: ops, SamplesNS: samples}
	r.MinNS, r.MaxNS = samples[0], samples[0]
	sum := 0.0
	for _, s := range samples {
		if s < r.MinNS {
			r.MinNS = s
		}
		if s > r.MaxNS {
			r.MaxNS = s
		}
		sum += s
	}
	r.MeanNS = sum / float64(len(samples))
	return r
}

// sampleLoop times o.Samples runs of loop(ops) after one warmup run,
// calling between() (if non-nil) before every run — collections happen
// there, never inside the timed region.
func sampleLoop(o Options, collector, bench string, ops int, between func(), loop func(ops int)) Result {
	samples := make([]float64, 0, o.Samples)
	for i := 0; i <= o.Samples; i++ {
		if between != nil {
			between()
		}
		t0 := time.Now()
		loop(ops)
		d := time.Since(t0)
		if i == 0 {
			continue // warmup: pages in the arena span, primes caches
		}
		samples = append(samples, float64(d.Nanoseconds())/float64(ops))
	}
	return summarize(collector, bench, ops, samples)
}

func runAlloc(o Options, collector, bench string, payload int, traced bool) Result {
	p, tr := newPlan(collector, o.HeapBytes, traced)
	v := vm.New(p, 0)
	v.SetTracer(tr)
	defer v.Shutdown()
	m := v.RegisterMutator(1)
	defer m.Deregister()

	size := obj.SizeFor(1, payload)
	ops := sampleVolume / size
	if ops < 64 {
		ops = 64
	}
	return sampleLoop(o, collector, bench, ops,
		func() { m.RequestGC() }, // reset epoch budgets; reclaim the dead young garbage
		func(ops int) {
			for i := 0; i < ops; i++ {
				m.Alloc(0, 1, payload)
			}
		})
}

// runStoreFast measures the barrier fast path: repeated stores to the
// fields of a fresh object. New objects' fields are in the Logged state
// (implicitly dead, §3.4), and with no collection running the state
// never changes, so every store is the fast path — for LXR exactly one
// metadata load.
func runStoreFast(o Options, collector string, traced bool) Result {
	p, tr := newPlan(collector, o.HeapBytes, traced)
	v := vm.New(p, 0)
	v.SetTracer(tr)
	defer v.Shutdown()
	m := v.RegisterMutator(1)
	defer m.Deregister()

	bench := "store/fast"
	if traced {
		bench += "+trace"
	}
	const slots = 64
	src := m.Alloc(0, slots, 0)
	val := m.Alloc(0, 0, 16)
	ops := 1 << 16
	return sampleLoop(o, collector, bench, ops,
		nil, // no collections: the fields must stay Logged
		func(ops int) {
			for i := 0; i < ops; i++ {
				m.Store(src, i&(slots-1), val)
			}
		})
}

// runStoreSlow measures the barrier slow path: the first store to each
// field of an epoch. Rooted objects are promoted by a collection, which
// arms their fields (Unlogged); each subsequent pause re-arms exactly
// the fields the barrier logged, so "store once to every armed field,
// then force a pause" yields all-slow-path samples indefinitely.
func runStoreSlow(o Options, collector string) Result {
	p, _ := newPlan(collector, o.HeapBytes, false)
	v := vm.New(p, 0)
	defer v.Shutdown()

	const nObjs, slots = 64, 64
	m := v.RegisterMutator(nObjs + 1)
	defer m.Deregister()
	for i := 0; i < nObjs; i++ {
		m.Roots[i] = m.Alloc(0, slots, 0)
	}
	m.Roots[nObjs] = m.Alloc(0, 0, 16)

	objs := make([]obj.Ref, nObjs)
	var val obj.Ref
	rearm := func() {
		m.RequestGC() // promotes on the first call; re-arms logged fields after
		for i := 0; i < nObjs; i++ {
			objs[i] = m.Roots[i] // collections may move the objects
		}
		val = m.Roots[nObjs]
	}
	return sampleLoop(o, collector, "store/slow", nObjs*slots,
		rearm,
		func(int) {
			for i := 0; i < nObjs; i++ {
				src := objs[i]
				for s := 0; s < slots; s++ {
					m.Store(src, s, val)
				}
			}
		})
}

// runLineScan measures the recycled-block free-line span walk over a
// line map with a realistic fragmented occupancy (~50% of lines hold
// counted objects), through the same query path the Immix allocators
// use (the RC table as LineMap). Reported ns/op is per block scanned
// (128 lines). Collector-independent: reported once, under "heap".
func runLineScan(o Options) Result {
	bt := immix.NewBlockTable(immix.Config{HeapBytes: 8 << 20})
	rc := meta.NewRCTable(bt.Arena)
	nBlocks := bt.BudgetBlocks()
	// Deterministic xorshift occupancy so before/after runs scan the
	// same pattern.
	rng := uint64(0x9e3779b97f4a7c15)
	for b := 1; b < nBlocks; b++ {
		for l := 0; l < mem.LinesPerBlock; l++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng&1 == 0 {
				rc.Set(mem.LineStart(b*mem.LinesPerBlock+l), 1)
			}
		}
	}
	ops := (nBlocks - 1) * 8
	return sampleLoop(o, "heap", "linescan", ops,
		nil,
		func(int) {
			for rep := 0; rep < 8; rep++ {
				for b := 1; b < nBlocks; b++ {
					immix.ScanSpans(rc, b*mem.LinesPerBlock)
				}
			}
		})
}
