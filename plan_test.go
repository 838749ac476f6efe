package lxr_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lxr"
	"lxr/internal/core"
	"lxr/internal/fastbench"
	"lxr/internal/gcwork"
	"lxr/internal/harness"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/telemetry"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// benchSurface names every root-module symbol bench/*.go compiles
// against. bench/ is its own module, invisible to the root's
// `go build ./... && go test ./...`: a rename or removal here is the
// only way tier-1 learns that the benchmark no longer builds. The list
// is what this prints, run from the repository root:
//
//	grep -ohE '\b(lxr|core|gcwork|mem|obj|trace|telemetry|fastbench)\.[A-Z]\w*' bench/*.go | sort -u
var benchSurface = []any{
	core.Config{}, (*core.LXR)(nil),
	core.CtrAllocBytes, core.CtrBarrierSlow, core.CtrDeadOld, core.CtrDeadSATB,
	core.CtrDefensiveSkip, core.CtrIncrements, core.CtrPauses, core.CtrPausesLazy,
	core.CtrPausesSATB, core.CtrPromoted, core.CtrStuck, core.CtrSurvivedBytes,
	core.CtrYoungEvacBytes,
	fastbench.Options{}, fastbench.Run,
	(*gcwork.WorkerPanic)(nil), gcwork.WorkerStat{}.PauseItems,
	(*lxr.Mutator)(nil), lxr.NewRuntimeChecked, lxr.Pause{}, lxr.Ref(0),
	(*lxr.Runtime)(nil), lxr.RuntimeConfig{},
	mem.BlockSize, mem.LineSize,
	obj.LargeThreshold, obj.SizeFor,
	telemetry.Interval{}, telemetry.MMU,
	trace.Config{}, trace.Event{}, trace.MutShard, trace.NameID(0),
	trace.NameDecSubmit, trace.NameDecs, trace.NameFlush, trace.NameIncrements,
	trace.NameInterrupt, trace.NameLoan, trace.NamePacer, trace.NameQuantum,
	trace.NameReclaim, trace.NameResolve, trace.NameRootDecs, trace.NameSATBFinal,
	trace.NameSATBSeed, trace.NameSweep,
	trace.New, (*trace.Tracer)(nil), trace.ValidateChrome,
}

// TestBenchSurface builds a runtime the way bench/run.go does and reads
// it back through the accessors the benchmark's driver and ledger use.
func TestBenchSurface(t *testing.T) {
	tr := trace.New(trace.Config{ShardCap: 1 << 12})
	rt, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		HeapBytes: 8 << 20,
		GCThreads: 2,
		LXR:       &core.Config{Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetTracer(tr) // before the first mutator registers
	plan := rt.Plan.(*core.LXR)

	m := rt.RegisterMutator(4)
	lane, name := trace.MutShard(uint64(m.ID)), tr.Intern("req")
	holder := m.Alloc(0, 4, 8)
	m.Roots[0] = holder
	for i := 0; i < 100; i++ {
		start := time.Now()
		o := m.Alloc(0, 1, 16)
		m.WritePayload(o, 0, uint64(i))
		m.Store(m.Roots[0], i%4, o)
		tr.Span(lane, name, start, time.Since(start), 0, 0)
	}
	e0 := rt.GCEpoch()
	m.RequestGC()
	if rt.GCEpoch() == e0 {
		t.Fatal("RequestGC did not advance the epoch")
	}
	if got := m.ReadPayload(m.Load(m.Roots[0], 99%4), 0); got != 99 {
		t.Fatalf("last stored object reads %d after a collection, want 99", got)
	}
	m.Blocked(func() {})
	m.Deregister()
	rt.Shutdown()

	bt := plan.BlockTable()
	if bt.InUseBlocks()+bt.FreeBlocks()+bt.RecycledBlocks()+bt.LOS().BlocksInUse() == 0 {
		t.Fatal("block table reports an empty heap")
	}
	if len(plan.GCWorkerStats()) != 2 {
		t.Fatalf("worker stats for %d workers, want 2", len(plan.GCWorkerStats()))
	}
	plan.GCLoanStats()
	if busy, _, pause, _ := rt.ConcSignals(); busy <= 0 || pause <= 0 {
		t.Fatalf("ConcSignals busy=%v pause=%v after a run with a pause", busy, pause)
	}
	if rt.Stats.Counters()[core.CtrPauses] == 0 || len(rt.Stats.Pauses()) == 0 {
		t.Fatal("no pause recorded")
	}
	rt.Stats.ConcurrentWork()
	if tr.Epoch().IsZero() || len(tr.Drain()) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestNewPlanBuildsEveryCollector: every lxr.CollectorKind and every
// collector id the harness accepts builds through lxr.NewPlan under its
// own name, with the session's borrow width applied and ZGC's
// minimum-heap refusal preserved.
func TestNewPlanBuildsEveryCollector(t *testing.T) {
	kinds := []lxr.CollectorKind{
		lxr.CollectorLXR, lxr.CollectorG1, lxr.CollectorShenandoah, lxr.CollectorZGC,
		lxr.CollectorSerial, lxr.CollectorParallel, lxr.CollectorSemiSpace, lxr.CollectorImmix,
		lxr.CollectorLXRNoSATB, lxr.CollectorLXRNoLD, lxr.CollectorLXRSTW, lxr.CollectorImmixWB,
	}
	ids := []string{
		harness.CLXR, harness.CG1, harness.CShen, harness.CZGC, harness.CSerial,
		harness.CParallel, harness.CSemiSpace, harness.CImmix, harness.CImmixWB,
		harness.CLXRNoSATB, harness.CLXRNoLD, harness.CLXRSTW,
	}
	if len(ids) != len(kinds) {
		t.Fatalf("harness accepts %d ids, lxr declares %d kinds", len(ids), len(kinds))
	}
	for _, id := range ids {
		kinds = append(kinds, lxr.CollectorKind(id))
	}
	for _, k := range kinds {
		plan, err := lxr.NewPlan(k, core.Config{HeapBytes: 64 << 20, GCThreads: 4, ConcWorkers: 3})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if plan.Name() != string(k) {
			t.Errorf("%s built a plan named %s", k, plan.Name())
		}
		want := 3
		if k == lxr.CollectorSerial {
			want = 1 // clamped to its single GC thread
		}
		if w := plan.(interface{ ConcWorkers() int }).ConcWorkers(); w != want {
			t.Errorf("%s: borrow width %d, want %d", k, w, want)
		}
		vm.New(plan, 4).Shutdown()
	}
	if _, err := lxr.NewPlan(lxr.CollectorZGC, core.Config{HeapBytes: 8 << 20}); !errors.Is(err, lxr.ErrMinHeap) {
		t.Fatalf("ZGC at 8 MB: %v, want ErrMinHeap", err)
	}
	if _, err := lxr.NewPlan("Epsilon", core.Config{}); err == nil {
		t.Fatal("unknown collector built a plan")
	}
}

// TestRuntimeConfigLXRRefusedByBaselines: LXR-only settings handed to a
// baseline collector are an error, not silently dropped; the settings
// every collector honours (heap, threads, borrow width, tracer) pass.
func TestRuntimeConfigLXRRefusedByBaselines(t *testing.T) {
	_, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		Collector: lxr.CollectorG1,
		LXR:       &core.Config{NoYoungEvac: true},
	})
	if err == nil {
		t.Fatal("G1 accepted an LXR-only setting")
	}
	rt, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		Collector: lxr.CollectorG1,
		HeapBytes: 16 << 20,
		LXR:       &core.Config{ConcWorkers: 1, Tracer: trace.New(trace.Config{ShardCap: 1 << 10})},
	})
	if err != nil {
		t.Fatalf("G1 refused the shared settings: %v", err)
	}
	rt.Shutdown()
	rt, err = lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		Collector: lxr.CollectorLXRNoLD,
		HeapBytes: 16 << 20,
		LXR:       &core.Config{NoYoungEvac: true},
	})
	if err != nil {
		t.Fatalf("an LXR ablation refused LXR settings: %v", err)
	}
	if rt.Plan.Name() != "LXR-LD" {
		t.Fatalf("built %s, want LXR-LD", rt.Plan.Name())
	}
	rt.Shutdown()
}
