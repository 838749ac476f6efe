// Package vm implements the simulated managed runtime that hosts the
// collectors: mutator threads with shadow-stack roots, a safepoint and
// stop-the-world rendezvous protocol, collection scheduling, and
// pause/latency accounting.
//
// The paper implements LXR inside MMTk on OpenJDK; this package plays
// the role of the JVM + MMTk glue. Every allocation, reference load and
// reference store performed by application code goes through a Plan,
// which is where collectors hang their barriers — the same mediation
// MMTk performs via compiler-injected barrier code.
package vm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/trace"
)

// The simulated runtime models a multicore machine (the paper evaluates
// on 16-32 hardware threads). On boxes with very few CPUs Go would give
// the concurrent collector thread no cycles between pauses, so the VM
// raises GOMAXPROCS to a small floor; combined with the periodic
// processor yield in Safepoint this lets concurrent collection overlap
// with mutators the way it does on real hardware.
func init() {
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
}

// Plan is the collector interface — the equivalent of an MMTk plan.
type Plan interface {
	// Name identifies the collector ("LXR", "G1", ...).
	Name() string
	// Arena exposes the heap the plan constructed.
	Arena() *mem.Arena
	// Boot finishes initialisation once the VM exists.
	Boot(v *VM)
	// (CollectNow below is self-contained: safe from any non-mutator
	// goroutine, or from a mutator inside Blocked.)
	// BindMutator installs per-mutator state (thread-local allocators,
	// barrier buffers) on m.PlanState.
	BindMutator(m *Mutator)
	// UnbindMutator flushes and releases per-mutator state.
	UnbindMutator(m *Mutator)
	// Alloc allocates an object, triggering collections as needed.
	Alloc(m *Mutator, l obj.Layout) obj.Ref
	// WriteRef performs a reference store src.slots[i] = val with the
	// plan's write barrier.
	WriteRef(m *Mutator, src obj.Ref, i int, val obj.Ref)
	// ReadRef performs a reference load of src.slots[i] with the plan's
	// read barrier (if any).
	ReadRef(m *Mutator, src obj.Ref, i int) obj.Ref
	// PollSafepoint runs plan work at mutator safepoints (trigger
	// checks). It must be cheap.
	PollSafepoint(m *Mutator)
	// CollectNow performs a synchronous collection for the given cause.
	// The caller must not hold the VM running-token (use
	// VM.RequestCollection from mutator context).
	CollectNow(cause string)
	// Shutdown stops concurrent collector threads.
	Shutdown()
}

// VM coordinates mutators and the collector.
type VM struct {
	Plan    Plan
	OM      obj.Model
	Stats   *Stats
	Globals []obj.Ref // global root slots (application-managed)

	phase  atomic.Int32 // non-zero: STW requested/active (lock-free fast-path fence)
	stopMu sync.Mutex   // serialises stoppers (StopTheWorldTagged)
	nextID atomic.Int64

	// Rendezvous state, guarded by mu.
	mu      sync.Mutex
	start   *sync.Cond // mutators wait here while the world is stopped
	stop    *sync.Cond // the stopper waits here for running to drain
	running int        // mutators holding the running token
	muts    []*Mutator // registered mutators (swap-remove, see Mutator.idx)
	// doneBusyNs banks the final busy time of deregistered mutators, so
	// ConcSignals stays monotone across registration churn.
	doneBusyNs int64

	gcLock  sync.Mutex // serialises collections
	gcEpoch atomic.Uint64

	// tracer, when non-nil, receives rendezvous and pause spans on the
	// GC timeline shard. Attach with SetTracer before mutators start.
	tracer *trace.Tracer

	shutdown atomic.Bool
}

// SetTracer attaches a GC event tracer (nil detaches). Call before the
// first mutator registers — the field is read without synchronisation
// on pause paths.
func (v *VM) SetTracer(t *trace.Tracer) { v.tracer = t }

// Tracer returns the attached event tracer (nil when tracing is off).
func (v *VM) Tracer() *trace.Tracer { return v.tracer }

// New creates a VM around a plan and boots it.
func New(p Plan, globalRoots int) *VM {
	v := &VM{
		Plan:    p,
		OM:      obj.Model{A: p.Arena()},
		Stats:   NewStats(),
		Globals: make([]obj.Ref, globalRoots),
	}
	v.start = sync.NewCond(&v.mu)
	v.stop = sync.NewCond(&v.mu)
	p.Boot(v)
	return v
}

// Shutdown stops the plan's concurrent threads. All mutators must have
// been deregistered.
func (v *VM) Shutdown() {
	v.shutdown.Store(true)
	v.Plan.Shutdown()
}

// GCEpoch returns the number of completed collections.
func (v *VM) GCEpoch() uint64 { return v.gcEpoch.Load() }

// --- running-token protocol --------------------------------------------------
//
// Every mutator holds the running token while it may touch the heap. A
// stopper publishes the pause with a single atomic phase store (the
// fence mutators check lock-free in PollPark), then waits under mu until
// the token count reaches zero. Token acquisition re-checks the phase
// under mu, so a zero count cannot grow again while the phase is set.

func (m *Mutator) acquireRunning() {
	v := m.VM
	v.mu.Lock()
	for v.phase.Load() != 0 {
		v.start.Wait()
	}
	v.running++
	v.mu.Unlock()
}

func (m *Mutator) releaseRunning() {
	v := m.VM
	v.mu.Lock()
	v.running--
	if v.running == 0 && v.phase.Load() != 0 {
		v.stop.Signal()
	}
	v.mu.Unlock()
}

// StopTheWorld brings all mutators to safepoints, runs f, and releases
// them, recording the pause under the given kind. Only collection code
// may call it, and only from within a RunCollection critical section (or
// a context that guarantees no concurrent StopTheWorld).
//
// The world is restarted even if f panics (contained worker panics are
// re-raised inside pause phases), so the panic propagates to a caller
// that can record the failure instead of leaving every other mutator
// parked forever.
func (v *VM) StopTheWorld(kind string, f func()) time.Duration {
	return v.StopTheWorldTagged(kind, func() string { f(); return "" })
}

// StopTheWorldTagged is StopTheWorld for pauses whose phase is only
// known once the work has run: f returns the refined pause kind the
// pause is attributed to ("" keeps kind). Collectors whose pauses
// dynamically absorb extra phases — LXR pauses that finish a lazy
// decrement batch or complete the SATB trace, G1 young pauses that turn
// mixed — use it so the per-phase pause histograms and reports separate
// those populations.
func (v *VM) StopTheWorldTagged(kind string, f func() string) time.Duration {
	reqStart := time.Now()
	v.stopMu.Lock()
	v.phase.Store(1)
	v.mu.Lock()
	for v.running > 0 {
		v.stop.Wait()
	}
	v.mu.Unlock()

	defer func() {
		v.phase.Store(0)
		v.mu.Lock()
		v.start.Broadcast()
		v.mu.Unlock()
		v.stopMu.Unlock()
	}()

	start := time.Now()
	if tr := v.tracer; tr != nil {
		// The rendezvous span covers stop-request → world-stopped, so a
		// TTSP outlier is attributable to the pause that paid it.
		tr.Span(trace.ShardGC, trace.NameRendezvous, reqStart, start.Sub(reqStart),
			uint64(v.MutatorCount()), 0)
	}
	if refined := f(); refined != "" {
		kind = refined
	}
	dur := time.Since(start)

	v.Stats.RecordPause(kind, start, dur, start.Sub(reqStart))
	if tr := v.tracer; tr != nil {
		// Recorded after f so the span carries the refined kind; phase
		// spans recorded inside f nest within it by construction.
		tr.Span(trace.ShardGC, tr.Intern("pause:"+kind), start, dur,
			uint64(start.Sub(reqStart)), 0)
	}
	return dur
}

// RunCollection serialises a collection request. When m is non-nil the
// mutator's running token is released for the duration (so the STW
// rendezvous does not wait on the requester). f typically calls
// Plan.CollectNow logic which uses StopTheWorld internally.
func (v *VM) RunCollection(m *Mutator, f func()) {
	if m != nil {
		m.releaseRunning()
		defer m.acquireRunning()
	}
	v.gcLock.Lock()
	defer v.gcLock.Unlock()
	f()
	v.gcEpoch.Add(1)
}

// CollectIfEpoch runs f (a collection) only if no collection completed
// since the caller observed epoch e. It returns true if f ran. Failing
// allocators use it so a burst of concurrent failures produces a single
// collection.
func (v *VM) CollectIfEpoch(m *Mutator, e uint64, f func()) bool {
	ran := false
	v.RunCollection(m, func() {
		if v.gcEpoch.Load() == e {
			f()
			ran = true
		}
	})
	return ran
}

// --- mutators ----------------------------------------------------------------

// Mutator is an application thread. All of its heap accesses go through
// the VM's plan. Roots is the thread's shadow stack: any object
// reachable from it is live.
type Mutator struct {
	ID int
	VM *VM

	// Roots is the shadow stack. The mutator may read and write it
	// freely; collectors scan it only while the world is stopped.
	Roots []obj.Ref

	// PlanState holds the plan's per-mutator state.
	PlanState any

	// idx is the mutator's index in VM.muts (maintained by swap-remove
	// under VM.mu).
	idx int

	// busy-time accounting for the LBO cycles metric
	registered time.Time
	parkedNs   atomic.Int64

	rngState uint64
	polls    uint32
}

// RegisterMutator creates and registers a mutator thread context with a
// shadow stack of rootSlots slots. The calling goroutine holds the
// running token until Deregister, Safepoint-park, or a Blocked section.
func (v *VM) RegisterMutator(rootSlots int) *Mutator {
	id := int(v.nextID.Add(1))
	m := &Mutator{
		ID:       id,
		VM:       v,
		Roots:    make([]obj.Ref, rootSlots),
		rngState: uint64(id)*0x9e3779b97f4a7c15 + 1,
	}
	m.acquireRunning()
	m.registered = time.Now()
	v.mu.Lock()
	m.idx = len(v.muts)
	v.muts = append(v.muts, m)
	v.mu.Unlock()
	v.Plan.BindMutator(m)
	return m
}

// Deregister removes the mutator; its roots are no longer scanned.
// The calling goroutine holds the running token throughout, so no
// stop-the-world (and hence no root scan) can overlap the removal.
func (m *Mutator) Deregister() {
	v := m.VM
	v.Plan.UnbindMutator(m)
	v.mu.Lock()
	// Capture the final busy time and bank it in the critical section
	// that removes the mutator: a ConcSignals sample sees either the live
	// mutator's (smaller) running busy or the banked value, never
	// neither, so sampled busy time is monotone across the retirement.
	busy := time.Since(m.registered) - time.Duration(m.parkedNs.Load())
	last := len(v.muts) - 1
	v.muts[m.idx] = v.muts[last]
	v.muts[m.idx].idx = m.idx
	v.muts[last] = nil
	v.muts = v.muts[:last]
	v.doneBusyNs += int64(busy)
	v.mu.Unlock()
	v.Stats.AddMutatorBusy(busy)
	m.releaseRunning()
}

// Safepoint is the GC poll. Mutators must call it frequently (Alloc
// calls it implicitly). If a stop-the-world is pending the mutator
// parks here until the collection finishes.
func (m *Mutator) Safepoint() {
	m.VM.Plan.PollSafepoint(m)
	m.PollPark()
}

// PollPark performs Safepoint's park-and-yield duties without the plan
// poll. Plans whose Alloc inlines its own trigger check call it
// directly so the poll is not dispatched twice per allocation. The
// fast path is one atomic load of the phase fence — no lock.
func (m *Mutator) PollPark() {
	if m.VM.phase.Load() != 0 {
		t0 := time.Now()
		m.releaseRunning()
		m.acquireRunning()
		m.parkedNs.Add(int64(time.Since(t0)))
		return
	}
	// Periodically yield the processor so concurrent collector threads
	// make progress even when the host has fewer CPUs than the machine
	// being modeled.
	m.polls++
	if m.polls&0x3ff == 0 {
		runtime.Gosched()
	}
}

// Blocked executes f with the mutator's running token released, so that
// stop-the-world can proceed while the mutator waits on channels, locks
// or I/O. f must not touch the heap.
func (m *Mutator) Blocked(f func()) {
	t0 := time.Now()
	m.releaseRunning()
	f()
	m.acquireRunning()
	m.parkedNs.Add(int64(time.Since(t0)))
}

// BlockedSleep sleeps with the running token released — equivalent to
// Blocked(func() { time.Sleep(d) }) but without the closure, so the
// open-loop request pacer allocates nothing per request.
func (m *Mutator) BlockedSleep(d time.Duration) {
	t0 := time.Now()
	m.releaseRunning()
	time.Sleep(d)
	m.acquireRunning()
	m.parkedNs.Add(int64(time.Since(t0)))
}

// Alloc allocates an object with the given number of reference slots and
// payload bytes, returning its reference.
func (m *Mutator) Alloc(typeID uint8, numRefs, payloadBytes int) obj.Ref {
	l := obj.Layout{
		NumRefs: numRefs,
		Size:    obj.SizeFor(numRefs, payloadBytes),
		TypeID:  typeID,
	}
	l.Large = l.Size > obj.LargeThreshold
	return m.VM.Plan.Alloc(m, l)
}

// Store writes reference slot i of obj src through the write barrier.
func (m *Mutator) Store(src obj.Ref, i int, val obj.Ref) {
	m.VM.Plan.WriteRef(m, src, i, val)
}

// Load reads reference slot i of obj src through the read barrier.
func (m *Mutator) Load(src obj.Ref, i int) obj.Ref {
	return m.VM.Plan.ReadRef(m, src, i)
}

// WritePayload stores a non-reference word into the object's payload.
// Payload accesses resolve forwarding (concurrent evacuating collectors
// may have moved the object) but need no other barrier, and no fence:
// a payload word is published by the reference store that follows it.
func (m *Mutator) WritePayload(src obj.Ref, word int, v uint64) {
	src = m.VM.OM.Resolve(src)
	m.VM.OM.A.StoreRelease(m.VM.OM.PayloadAddr(src)+mem.Address(word)*mem.WordSize, v)
}

// ReadPayload loads a non-reference word from the object's payload.
func (m *Mutator) ReadPayload(src obj.Ref, word int) uint64 {
	src = m.VM.OM.Resolve(src)
	return m.VM.OM.A.Load(m.VM.OM.PayloadAddr(src) + mem.Address(word)*mem.WordSize)
}

// NumRefs returns the reference-slot count of an object.
func (m *Mutator) NumRefs(src obj.Ref) int {
	return m.VM.OM.NumRefs(m.VM.OM.Resolve(src))
}

// RequestGC performs a synchronous collection from mutator context.
// The mutator's running token is released for the duration so the
// stop-the-world rendezvous does not wait on the requester.
func (m *Mutator) RequestGC() {
	m.Blocked(func() { m.VM.Plan.CollectNow("explicit") })
}

// Rand returns a fast thread-local pseudo-random uint64 (xorshift*).
// Workloads use it so that no locking or allocation sneaks into the
// mutator hot path.
func (m *Mutator) Rand() uint64 {
	x := m.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// --- root scanning -----------------------------------------------------------
//
// The root walks below must only be called while the world is stopped
// (or before mutators start): the registered set cannot change then,
// because registration and deregistration hold the running token.

// SnapshotRoots appends every root (all mutator shadow stacks plus the
// global root slots) to dst.
func (v *VM) SnapshotRoots(dst []obj.Ref) []obj.Ref {
	for _, m := range v.muts {
		for _, r := range m.Roots {
			if !r.IsNil() {
				dst = append(dst, r)
			}
		}
	}
	for _, r := range v.Globals {
		if !r.IsNil() {
			dst = append(dst, r)
		}
	}
	return dst
}

// RootSlots appends a pointer to every non-nil root slot (mutator
// shadow stacks and globals) to dst, so evacuating collectors can
// redirect each slot when its referent moves.
func (v *VM) RootSlots(dst []*obj.Ref) []*obj.Ref {
	for _, m := range v.muts {
		for j := range m.Roots {
			if !m.Roots[j].IsNil() {
				dst = append(dst, &m.Roots[j])
			}
		}
	}
	for i := range v.Globals {
		if !v.Globals[i].IsNil() {
			dst = append(dst, &v.Globals[i])
		}
	}
	return dst
}

// EachMutator invokes f for every registered mutator.
func (v *VM) EachMutator(f func(m *Mutator)) {
	for _, m := range v.muts {
		f(m)
	}
}

// FixRoots rewrites every non-nil root slot through f (used by copying
// collectors to redirect references to evacuated objects).
func (v *VM) FixRoots(f func(obj.Ref) obj.Ref) {
	for _, s := range v.RootSlots(nil) {
		*s = f(*s)
	}
}

// ConcSignals returns the cumulative CPU-accounting inputs a windowed
// estimator differences: total mutator busy time — live mutators'
// elapsed-minus-parked time plus the banked busy time of mutators that
// already deregistered — total collector work, total stop-the-world
// time, and the live mutator count. The benchmark's gc_cpu_frac is
// derived from it.
//
// The instant is read under mu, so it postdates every registration the
// walk sees, and registration and retirement are atomic with respect to
// the sample: busy time is monotone across register/deregister churn.
// Only a park in flight at the sample instant counts as busy until it
// completes, so a window closing mid-park can observe a small negative
// delta.
func (v *VM) ConcSignals() (mutBusy, gcWork, pause time.Duration, mutators int) {
	v.mu.Lock()
	now := time.Now()
	busy := v.doneBusyNs
	for _, m := range v.muts {
		busy += now.Sub(m.registered).Nanoseconds() - m.parkedNs.Load()
	}
	mutators = len(v.muts)
	v.mu.Unlock()
	return time.Duration(busy), v.Stats.GCWork(), v.Stats.TotalPause(), mutators
}

// MutatorCount returns the number of registered mutators. Approximate if
// called while the world is running.
func (v *VM) MutatorCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.muts)
}
