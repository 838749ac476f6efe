// Package core implements LXR — Latency-critical Immix with Reference
// counting (Zhao, Blackburn & McKinley, PLDI 2022) — on the simulated
// runtime substrate.
//
// LXR identifies garbage primarily with coalescing deferred reference
// counting performed in regular, brief stop-the-world pauses; reclaims
// most memory without copying in an Immix heap; copies only young
// objects, on their first increment; detects cyclic and stuck-count
// garbage with an occasional concurrent SATB trace that may span
// multiple RC epochs; and processes decrements lazily on a concurrent
// thread.
package core

import (
	"sync/atomic"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/policy"
	"lxr/internal/satb"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Config controls an LXR instance. Zero values select the paper's
// default configuration (§4, "LXR Configuration").
type Config struct {
	// HeapBytes is the heap budget.
	HeapBytes int
	// GCThreads sizes the parallel STW worker pool.
	GCThreads int
	// SurvivalThresholdBytes is the RC trigger's expected-survivor
	// bound per epoch (the paper uses 128 MB on multi-GB heaps; default
	// here scales with the heap: HeapBytes/8, capped at 128 MB).
	SurvivalThresholdBytes int64

	// Ablations (Table 7 "Concurrency" columns).

	// NoConcurrentSATB (-SATB) performs the whole trace inside the
	// triggering pause instead of concurrently.
	NoConcurrentSATB bool
	// NoLazyDecrements (-LD) processes decrements inside the pause.
	NoLazyDecrements bool

	// Tracer, when non-nil, attaches the GC event tracer: pause-phase
	// spans, concurrent quantum spans, pacing-trigger instants and sampled barrier
	// instants are recorded into its rings. nil (the default) leaves
	// every instrumentation site as a single predictable branch.
	Tracer *trace.Tracer
}

func (c *Config) setDefaults() {
	if c.HeapBytes == 0 {
		c.HeapBytes = 64 << 20
	}
	if c.GCThreads == 0 {
		c.GCThreads = 4
	}
	if c.SurvivalThresholdBytes == 0 {
		c.SurvivalThresholdBytes = int64(c.HeapBytes) / 8
		if c.SurvivalThresholdBytes > 128<<20 {
			c.SurvivalThresholdBytes = 128 << 20
		}
	}
}

// LXR is the collector plan.
type LXR struct {
	cfg Config

	bt       *immix.BlockTable
	om       obj.Model
	rc       *meta.RCTable
	straddle *meta.BitTable // granule: straddle marker, not an object start
	logs     *meta.FieldLogTable
	marks    *meta.BitTable // granule: SATB mark bits
	tracer   *satb.Tracer
	pool     *gcwork.Pool
	vm       *vm.VM
	// events is the GC event tracer (nil = tracing off; every use is
	// one nil-check branch). The SATB tracer above is unrelated.
	events   *trace.Tracer
	trigFull trace.NameID // "trigger:heap-full", interned in Boot

	// pacer owns every start decision: the RC pause trigger polled at
	// safepoints and the SATB cycle vote evaluated at pause end
	// (§3.2.1, §3.2.2). It reports each due decision to events itself.
	pacer *policy.RCPacer

	// The epoch's allocation volume, polled by the trigger fast path.
	// Mutators accumulate in per-mutator counters (mutState) and publish
	// here at a coarse grain from the trigger poll; pauses and
	// UnbindMutator fold in the unpublished tails, so across a pause the
	// total is exact.
	allocSince  atomic.Int64 // published bytes allocated since last pause
	gcScheduled atomic.Bool

	// satbActive is true from the pause that seeds a trace until the
	// pause that completes it.
	satbActive atomic.Bool

	traceEpochs int // RC epochs the current trace has spanned

	// Flushed-at-pause queues.
	losNewMu struct{ q gcwork.SharedAddrQueue } // large objects allocated this epoch
	rootDecs []obj.Ref                          // deferred root decrements for next epoch

	conc *concurrent

	// Pre-resolved handles for the per-object-hot stats counters, so
	// decrement and promotion paths skip the counter-name lookup.
	// Initialised in Boot.
	ctr struct {
		decrements, deadOld, skip, promoted, evacYoung, stuck vm.CounterHandle
	}

	// Per-pause scratch (valid only during a pause).
	rootSlots []*obj.Ref
	survived  atomic.Int64 // young bytes surviving this epoch
	copiedY   atomic.Int64 // young bytes evacuated this epoch

	// rootItems[i] == rootTag|i: the increment drain's root segment,
	// kept across pauses because its contents never change.
	rootItems []mem.Address
	// decBuf backs each pause's decrement batch. From dec-submit the
	// concurrent driver owns its contents (submitDecs takes the slice,
	// not a copy); the next pause finishes whatever is left of the batch
	// in step 2 and only then refills the buffer.
	decBuf []mem.Address

	epoch atomic.Uint64 // completed RC epochs

	// Residue accumulators for mutators that deregistered mid-epoch;
	// live mutators' counts stay in mutState until the pause harvest.
	allocObjects atomic.Int64 // objects allocated since last pause (telemetry)
	barrierSlow  atomic.Int64 // barrier slow paths since last pause (telemetry)
}

// New creates an LXR plan.
func New(cfg Config) *LXR {
	cfg.setDefaults()
	bt := immix.NewBlockTable(immix.Config{HeapBytes: cfg.HeapBytes})
	p := &LXR{
		cfg:      cfg,
		bt:       bt,
		om:       obj.Model{A: bt.Arena},
		rc:       meta.NewRCTable(bt.Arena),
		straddle: meta.NewBitTable(bt.Arena, mem.GranuleLog),
		logs:     meta.NewFieldLogTable(bt.Arena),
		marks:    meta.NewBitTable(bt.Arena, mem.GranuleLog),
		pool:     gcwork.NewPool(cfg.GCThreads),
	}
	// Fresh large objects must start with clean side metadata: stale
	// field-log states from a previous occupant would corrupt coalescing
	// (a stale Busy state would even hang the barrier).
	bt.LOS().OnAlloc = func(start, end mem.Address) {
		p.logs.ClearRange(start, end)
		p.straddle.ClearRange(start, end)
		p.marks.ClearRange(start, end)
	}
	p.tracer = &satb.Tracer{
		OM:    p.om,
		Marks: p.marks,
		// Mature-only SATB: skip unpromoted objects (zero RC) and
		// straddle markers, which are not object starts (§3.2.2). The
		// plausibility check shields the tracer from stale queue
		// entries whose memory has been reclaimed and reused.
		Filter: func(r obj.Ref) bool {
			return p.plausibleRef(r) && p.rc.Get(r) != 0 && !p.straddle.Get(r) && p.saneRef(r)
		},
	}
	p.pacer = policy.NewRCPacer(policy.RCPacerConfig{
		HeapBytes:              cfg.HeapBytes,
		SurvivalThresholdBytes: cfg.SurvivalThresholdBytes,
		Tracer:                 cfg.Tracer,
	})
	p.events = cfg.Tracer
	p.conc = newConcurrent(p)
	return p
}

// Name implements vm.Plan.
func (p *LXR) Name() string {
	switch {
	case p.cfg.NoConcurrentSATB && p.cfg.NoLazyDecrements:
		return "LXR-STW"
	case p.cfg.NoConcurrentSATB:
		return "LXR-SATB"
	case p.cfg.NoLazyDecrements:
		return "LXR-LD"
	}
	return "LXR"
}

// Arena implements vm.Plan.
func (p *LXR) Arena() *mem.Arena { return p.bt.Arena }

// Boot implements vm.Plan.
func (p *LXR) Boot(v *vm.VM) {
	p.vm = v
	p.ctr.decrements = v.Stats.Handle(CtrDecrements)
	p.ctr.deadOld = v.Stats.Handle(CtrDeadOld)
	p.ctr.skip = v.Stats.Handle(CtrDefensiveSkip)
	p.ctr.promoted = v.Stats.Handle(CtrPromoted)
	p.ctr.evacYoung = v.Stats.Handle(CtrYoungEvacBytes)
	p.ctr.stuck = v.Stats.Handle(CtrStuck)
	p.trigFull = p.events.TriggerName("heap-full")
	p.conc.start()
}

// Shutdown implements vm.Plan.
func (p *LXR) Shutdown() {
	p.conc.stop()
	p.pool.Stop()
}

// Epoch returns the number of completed RC epochs.
func (p *LXR) Epoch() uint64 { return p.epoch.Load() }

// BlockTable exposes the heap for tests and the harness.
func (p *LXR) BlockTable() *immix.BlockTable { return p.bt }

// RC exposes the reference-count table for tests.
func (p *LXR) RC() *meta.RCTable { return p.rc }

// GCWorkerStats exposes the pool's per-worker in-pause utilization
// (harness telemetry).
func (p *LXR) GCWorkerStats() []gcwork.WorkerStat { return p.pool.WorkerStats() }

// GCLoanStats always returns zero: concurrent work runs on the driver's
// own goroutine and never borrows pool workers. It is kept only because
// the benchmark module's ledger still reads it.
func (p *LXR) GCLoanStats() (loans, items int64) { return 0, 0 }

// --- mutator state -----------------------------------------------------------

// mutState is the per-mutator plan state. The epoch counters (bump
// bytes in alloc.SinceEpoch, largeSince, allocObjs, slowOps) are plain
// fields written only by the owning mutator; the trigger poll publishes
// the allocation-volume tail into the global atomics at a coarse grain
// (allocPublishBytes) and pauses harvest everything exactly, so the
// allocation and barrier fast paths touch no shared cache lines.
type mutState struct {
	alloc      immix.Allocator
	decBuf     gcwork.AddrBuffer // overwritten referents (coalescing decs + SATB snapshot)
	modBuf     gcwork.AddrBuffer // logged field addresses (coalescing incs)
	lxr        *LXR
	largeSince int64 // LOS bytes since the last publish (bump bytes live in alloc.SinceEpoch)
	allocObjs  int64 // objects allocated since the last pause (telemetry)
	slowOps    int64 // barrier slow paths since the last pause
	shard      int   // event-tracer instant lane (from the mutator ID)
}

// BindMutator implements vm.Plan.
func (p *LXR) BindMutator(m *vm.Mutator) {
	ms := &mutState{lxr: p, shard: trace.MutShard(uint64(m.ID))}
	// The RC table is the line map: a line a promoted object straddles
	// keeps a non-zero word too (markStraddleLines).
	ms.alloc = immix.Allocator{BT: p.bt, Lines: p.rc, OnSpan: p.onSpan}
	m.PlanState = ms
}

// UnbindMutator implements vm.Plan.
func (p *LXR) UnbindMutator(m *vm.Mutator) {
	ms := m.PlanState.(*mutState)
	ms.alloc.Flush()
	// Fold the per-mutator epoch counters into the global residue
	// accumulators the next pause will harvest (the caller still holds
	// the running token, so no pause races this).
	p.allocSince.Add(ms.alloc.HarvestSinceEpoch() + ms.largeSince)
	p.allocObjects.Add(ms.allocObjs)
	p.barrierSlow.Add(ms.slowOps)
	// Buffers are drained at the next pause via the shared queues,
	// segment-granular (no flattening copy).
	for _, s := range ms.decBuf.TakeSegs() {
		p.conc.decs.Append(s)
	}
	for _, s := range ms.modBuf.TakeSegs() {
		p.conc.mods.Append(s)
	}
	m.PlanState = nil
}

// onSpan prepares a span handed to a bump allocator: all metadata is
// cleared so new objects start with Logged fields, no straddle markers
// and no stale marks.
func (p *LXR) onSpan(start, end mem.Address) {
	p.logs.ClearRange(start, end)
	p.straddle.ClearRange(start, end)
	p.marks.ClearRange(start, end)
}
