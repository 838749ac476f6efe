package lxr_test

import (
	"bytes"
	"errors"
	"math"
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
	// The ledger counts pacing decisions by interning these names
	// (bench/ledger.go triggerKinds), so a renamed kind would zero
	// policy.trigger_count and fail nothing else. The pauses so far emit
	// satb-clean (no trace measured yet, then the explicit one);
	// triggered pauses must emit the other two: promoted cycles dropped a
	// lap later, so that the traces which follow free memory and the vote
	// predicts that the next will.
	missing := func() (kinds []string) {
		seen := map[trace.NameID]bool{}
		for _, ev := range tr.Drain()[trace.ShardPolicy].Events {
			seen[ev.Name] = true
		}
		for _, k := range []string{"rc-survival", "satb-clean", "satb-wastage"} {
			if !seen[tr.Intern("trigger:"+k)] {
				kinds = append(kinds, k)
			}
		}
		return kinds
	}
	m.Roots[1] = m.Alloc(0, 512, 0)
	for i := 0; len(missing()) > 0; i++ {
		if i == 256 {
			t.Fatalf("256 laps of dropped cycles emitted no trigger:%v instant", missing())
		}
		for j := 0; j < 512; j++ {
			m.Roots[2] = m.Alloc(0, 1, 1024)
			b := m.Alloc(0, 1, 1024)
			m.Store(b, 0, m.Roots[2])
			m.Store(m.Roots[2], 0, b)
			m.Store(m.Roots[1], j, m.Roots[2])
		}
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

// TestEveryCollectorReportsItsTriggers builds every collector with a
// tracer, allocates on one mutator until it has collected, and checks
// the policy lane: instants only of that collector's kinds, each with
// its signal on the firing side of its threshold, and no kind more
// often than there were pauses — one instant is one started collection
// or cycle, not one refused allocation.
func TestEveryCollectorReportsItsTriggers(t *testing.T) {
	ge := func(s, thr float64) bool { return s >= thr }
	gt := func(s, thr float64) bool { return s > thr }
	firingSide := map[string]func(s, thr float64) bool{
		"rc-survival": ge, "satb-wastage": ge, "satb-clean": ge,
		"young-target": ge, "ihop": gt,
		"young-reserve": func(s, thr float64) bool { return s <= thr },
		"free-fraction": gt,
		"half-budget":   ge,
		// Allocation failure has no threshold to cross: Immix reports
		// occupancy within the budget, LXR the ladder's attempt (0 to 3)
		// against 0.
		"heap-full": func(s, thr float64) bool { return s > 0 && s <= thr || thr == 0 && s >= 0 && s <= 3 },
	}
	lxrKinds := []string{"rc-survival", "satb-clean", "satb-wastage", "heap-full"}
	g1Kinds := []string{"young-target", "young-reserve", "ihop"}
	kindsOf := map[lxr.CollectorKind][]string{
		lxr.CollectorLXR: lxrKinds, lxr.CollectorLXRNoSATB: lxrKinds,
		lxr.CollectorLXRNoLD: lxrKinds, lxr.CollectorLXRSTW: lxrKinds,
		lxr.CollectorG1:         g1Kinds,
		lxr.CollectorShenandoah: {"free-fraction"}, lxr.CollectorZGC: {"free-fraction"},
		lxr.CollectorSerial: {"half-budget"}, lxr.CollectorParallel: {"half-budget"},
		lxr.CollectorSemiSpace: {"half-budget"},
		lxr.CollectorImmix:     {"heap-full"}, lxr.CollectorImmixWB: {"heap-full"},
	}
	for k, kinds := range kindsOf {
		t.Run(string(k), func(t *testing.T) {
			heap := 8 << 20
			if k == lxr.CollectorZGC {
				heap = 48 << 20 // its minimum is 40 MB
			}
			tr := trace.New(trace.Config{ShardCap: 1 << 12})
			plan, err := lxr.NewPlan(k, core.Config{HeapBytes: heap, GCThreads: 2, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			v := vm.New(plan, 0)
			m := v.RegisterMutator(2)
			want, paced := 2, kinds[0] == "rc-survival"
			if paced {
				// LXR's pacer paces: it meets an allocation failure only
				// when the live set leaves less room than the epoch budget
				// asks for. Keep three quarters of the heap reachable.
				for i := 0; i < 6<<10; i++ {
					n := m.Alloc(0, 1, 1024)
					m.Store(n, 0, m.Roots[1])
					m.Roots[1] = n
				}
				want = v.Stats.PauseCount() + 8
			}
			for i := 0; v.Stats.PauseCount() < want; i++ {
				if i == 8*heap/1024 {
					t.Fatalf("pause %d of %d not reached after allocating 8x the heap", v.Stats.PauseCount(), want)
				}
				m.Roots[0] = m.Alloc(0, 1, 1024)
				if i%512 == 0 {
					// Let Shenandoah's and ZGC's 2 ms occupancy poll
					// see the heap fill before allocation failure
					// requests the cycle instead.
					m.BlockedSleep(3 * time.Millisecond)
				}
			}
			m.Deregister()
			v.Shutdown()

			kindOf := map[trace.NameID]string{}
			for _, kind := range kinds {
				kindOf[tr.TriggerName(kind)] = kind
			}
			count := map[string]int{}
			evs := tr.Drain()[trace.ShardPolicy].Events
			for _, ev := range evs {
				kind, ok := kindOf[ev.Name]
				if !ok {
					t.Fatalf("policy lane holds an instant outside %v (name id %d)", kinds, ev.Name)
				}
				s, thr := math.Float64frombits(ev.Arg), math.Float64frombits(ev.Arg2)
				if !firingSide[kind](s, thr) {
					t.Errorf("trigger:%s fired with signal %v against threshold %v", kind, s, thr)
				}
				count[kind]++
			}
			pauses := v.Stats.PauseCount()
			if len(evs) == 0 {
				t.Fatalf("%d pauses and no trigger instant", pauses)
			}
			for kind, n := range count {
				if n > pauses {
					t.Errorf("trigger:%s fired %d times for %d pauses", kind, n, pauses)
				}
			}
			if paced && count["heap-full"] == 0 {
				t.Errorf("no trigger:heap-full among %v with the heap three quarters live", count)
			}
		})
	}
}

// TestRuntimeConfigLXRRefusedByBaselines: LXR-only settings handed to a
// baseline collector are an error, not silently dropped; the settings
// every collector honours (heap, threads, borrow width, tracer) pass.
func TestRuntimeConfigLXRRefusedByBaselines(t *testing.T) {
	_, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		Collector: lxr.CollectorG1,
		LXR:       &core.Config{SurvivalThresholdBytes: 1 << 20},
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
		LXR:       &core.Config{SurvivalThresholdBytes: 1 << 20},
	})
	if err != nil {
		t.Fatalf("an LXR ablation refused LXR settings: %v", err)
	}
	if rt.Plan.Name() != "LXR-LD" {
		t.Fatalf("built %s, want LXR-LD", rt.Plan.Name())
	}
	rt.Shutdown()
}
