// Package lxr is the public API of the LXR reproduction: a managed-heap
// runtime simulator hosting the LXR garbage collector (Zhao, Blackburn &
// McKinley, "Low-Latency, High-Throughput Garbage Collection", PLDI
// 2022) together with the baseline collectors the paper evaluates
// against (G1, Shenandoah, ZGC, Serial, Parallel, SemiSpace, Immix).
//
// # Quick start
//
//	rt := lxr.NewRuntime(lxr.RuntimeConfig{HeapBytes: 64 << 20})
//	defer rt.Shutdown()
//	m := rt.RegisterMutator(8)          // 8 root slots
//	obj := m.Alloc(0, 2, 16)            // typeID 0, 2 ref slots, 16 payload bytes
//	m.Roots[0] = obj                    // keep it alive
//	m.Store(obj, 0, m.Alloc(0, 0, 8))   // barrier-instrumented pointer store
//	child := m.Load(obj, 0)             // barrier-instrumented pointer load
//	_ = child
//	m.Deregister()
//
// Mutator discipline: any reference held across a Safepoint (every Alloc
// is one) must live in the mutator's Roots slice, exactly as JIT-compiled
// code keeps references visible to stack scanning.
//
// See DESIGN.md for architecture and EXPERIMENTS.md for the paper's
// tables and figures and how to regenerate them (cmd/lxr-bench).
package lxr

import (
	"errors"
	"fmt"

	"lxr/internal/baselines"
	"lxr/internal/core"
	"lxr/internal/obj"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Ref is a reference to a heap object.
type Ref = obj.Ref

// Mutator is an application thread attached to the runtime. See
// vm.Mutator for the full API (Alloc, Load, Store, payload access,
// Safepoint, Blocked, RequestGC).
type Mutator = vm.Mutator

// Stats exposes pause records, counters and busy-time accounting.
type Stats = vm.Stats

// Pause is one stop-the-world pause record.
type Pause = vm.Pause

// CollectorKind selects the garbage collector for a Runtime.
type CollectorKind string

// Available collectors.
const (
	CollectorLXR        CollectorKind = "LXR"
	CollectorG1         CollectorKind = "G1"
	CollectorShenandoah CollectorKind = "Shenandoah"
	CollectorZGC        CollectorKind = "ZGC"
	CollectorSerial     CollectorKind = "Serial"
	CollectorParallel   CollectorKind = "Parallel"
	CollectorSemiSpace  CollectorKind = "SemiSpace"
	CollectorImmix      CollectorKind = "Immix"

	// The Table 7 concurrency ablations of LXR, and Immix paying LXR's
	// write barrier (the barrier-overhead experiment).
	CollectorLXRNoSATB CollectorKind = "LXR-SATB" // trace in the pause
	CollectorLXRNoLD   CollectorKind = "LXR-LD"   // decrements in the pause
	CollectorLXRSTW    CollectorKind = "LXR-STW"  // both
	CollectorImmixWB   CollectorKind = "Immix+WB"
)

// RuntimeConfig configures a Runtime.
type RuntimeConfig struct {
	// Collector selects the GC algorithm (default LXR).
	Collector CollectorKind
	// HeapBytes is the heap budget (default 64 MB).
	HeapBytes int
	// GCThreads sizes the parallel collection pool (default 4).
	GCThreads int
	// GlobalRoots sizes the global root array (default 16).
	GlobalRoots int
	// LXR, when Collector is LXR (or one of its ablations), overrides
	// the full LXR configuration (ablations, the survival trigger, the
	// clean-block buffer). HeapBytes/GCThreads above still apply when
	// the corresponding fields are zero. Any other collector refuses
	// LXR settings it cannot honour (see NewPlan).
	LXR *core.Config
}

// Runtime is a simulated managed runtime with a garbage-collected heap.
type Runtime struct {
	*vm.VM
}

// NewRuntime creates a runtime with the configured collector.
// It panics if the collector cannot run at the given heap size
// (use NewRuntimeChecked to detect that case).
func NewRuntime(cfg RuntimeConfig) *Runtime {
	rt, err := NewRuntimeChecked(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// NewRuntimeChecked is NewRuntime returning an error when the collector
// cannot be built as configured (see NewPlan).
func NewRuntimeChecked(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.Collector == "" {
		cfg.Collector = CollectorLXR
	}
	if cfg.GlobalRoots == 0 {
		cfg.GlobalRoots = 16
	}
	var c core.Config
	if cfg.LXR != nil {
		c = *cfg.LXR
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = cfg.HeapBytes
	}
	if c.GCThreads == 0 {
		c.GCThreads = cfg.GCThreads
	}
	plan, err := NewPlan(cfg.Collector, c)
	if err != nil {
		return nil, err
	}
	return &Runtime{VM: vm.New(plan, cfg.GlobalRoots)}, nil
}

// ErrMinHeap reports that a collector cannot operate at the requested
// heap size (ZGC's minimum heap).
var ErrMinHeap = errors.New("lxr: ZGC requires a larger minimum heap")

// NewPlan is the one place a collector name becomes a plan. c carries
// the three settings every collector reads — heap budget (default
// 64 MB), GC threads (default 4) and event tracer — and is the
// configuration an LXR row starts from. A baseline collector handed any other LXR setting
// returns an error rather than running without it.
func NewPlan(id CollectorKind, c core.Config) (vm.Plan, error) {
	if c.HeapBytes == 0 {
		c.HeapBytes = 64 << 20
	}
	if c.GCThreads == 0 {
		c.GCThreads = 4
	}
	switch id {
	case CollectorLXR:
		return core.New(c), nil
	case CollectorLXRNoSATB:
		c.NoConcurrentSATB = true
		return core.New(c), nil
	case CollectorLXRNoLD:
		c.NoLazyDecrements = true
		return core.New(c), nil
	case CollectorLXRSTW:
		c.NoConcurrentSATB, c.NoLazyDecrements = true, true
		return core.New(c), nil
	}
	heap, threads := c.HeapBytes, c.GCThreads
	if c != (core.Config{HeapBytes: heap, GCThreads: threads, Tracer: c.Tracer}) {
		return nil, fmt.Errorf("lxr: collector %q cannot honour LXR-only settings (RuntimeConfig.LXR)", id)
	}
	var b interface {
		vm.Plan
		SetTracer(*trace.Tracer)
	}
	switch id {
	case CollectorG1:
		b = baselines.NewG1(heap, threads)
	case CollectorShenandoah:
		b = baselines.NewShenandoah(heap, threads)
	case CollectorZGC:
		z := baselines.NewZGC(heap, threads)
		if z == nil {
			return nil, ErrMinHeap
		}
		b = z
	case CollectorSerial:
		b = baselines.NewSerial(heap)
	case CollectorParallel:
		b = baselines.NewParallel(heap, threads)
	case CollectorSemiSpace:
		b = baselines.NewSemiSpace("SemiSpace", heap, threads)
	case CollectorImmix:
		b = baselines.NewImmix(heap, threads, false)
	case CollectorImmixWB:
		b = baselines.NewImmix(heap, threads, true)
	default:
		return nil, fmt.Errorf("lxr: unknown collector %q", id)
	}
	if c.Tracer != nil {
		b.SetTracer(c.Tracer)
	}
	return b, nil
}

// LXRConfig re-exports the full LXR configuration type.
type LXRConfig = core.Config
