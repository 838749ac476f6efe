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

// MutatorShards is the number of rendezvous shards mutators are
// striped across (striped the same way Stats stripes its counters).
// Everything per-mutator on a stop-the-world or sampling path — the
// running-token rendezvous, park wakeups, the registered-mutator set,
// and the cumulative busy/park accounting — is per-shard, so no single
// mutex or condvar ever serialises a thousand mutators.
const MutatorShards = 32

// mutShard is one stripe of the rendezvous state. A mutator is pinned
// to a shard at registration (by ID) and only ever touches its own
// shard's lock, so token traffic from N mutators spreads over
// MutatorShards uncontended locks, and a world restart wakes each
// shard's parked mutators on that shard's condvar instead of thundering
// the whole fleet through one.
type mutShard struct {
	mu      sync.Mutex
	start   *sync.Cond // mutators wait here while the world is stopped
	stop    *sync.Cond // the stopper waits here for running to drain
	running int        // mutators in this shard holding the running token
	muts    []*Mutator // registered mutators (swap-remove, see shardIdx)

	// Cumulative signal aggregates, guarded by mu (register/deregister
	// hold it for the mutator list anyway; parks add one uncontended
	// shard-lock acquisition): regSumNs / parkSumNs sum each live
	// mutator's registration offset (from VM.sigEpoch) and recorded
	// parked time, and doneBusyNs accumulates the final busy time of
	// mutators that deregistered. ConcSignals derives the shard's total
	// busy time from these three sums plus len(muts) — see ConcSignals.
	// Updating them under mu makes registration, retirement and park
	// recording atomic with respect to sampling, so sampled busy time
	// never glitches across register/deregister churn.
	regSumNs   int64
	parkSumNs  int64
	doneBusyNs int64

	// live mirrors len(muts) so MutatorCount stays lock-free.
	live atomic.Int64

	_ [48]byte // pad to a cache-line multiple: shard state must not false-share
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
	shards [MutatorShards]mutShard

	// sigEpoch is the time base for the sharded busy accounting:
	// registration times are stored in the shard aggregates as offsets
	// from it, so live busy time is derived from per-shard sums.
	sigEpoch time.Time

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
		Plan:     p,
		OM:       obj.Model{A: p.Arena()},
		Stats:    NewStats(),
		Globals:  make([]obj.Ref, globalRoots),
		sigEpoch: time.Now(),
	}
	for i := range v.shards {
		sh := &v.shards[i]
		sh.start = sync.NewCond(&sh.mu)
		sh.stop = sync.NewCond(&sh.mu)
	}
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
// Every mutator holds a per-shard running token while it may touch the
// heap. A stopper publishes the pause with a single atomic phase store
// (the fence mutators check lock-free in PollPark), then drains each
// shard in turn: under the shard lock, it waits until that shard's
// token count reaches zero. Because token acquisition re-checks the
// phase under the shard lock, a zero count can never grow again while
// the phase is set, so the per-shard waits compose into a global
// rendezvous without any global lock. Wakeups are sharded in both
// directions: the last token-holder of a shard signals only that
// shard's stopper condvar, and the restart broadcast wakes each shard's
// parked mutators on their own condvar — no thundering herd through a
// single cond no matter how many mutators are parked.

func (m *Mutator) acquireRunning() {
	sh := m.shard
	sh.mu.Lock()
	for m.VM.phase.Load() != 0 {
		sh.start.Wait()
	}
	sh.running++
	sh.mu.Unlock()
}

func (m *Mutator) releaseRunning() {
	sh := m.shard
	sh.mu.Lock()
	sh.running--
	if sh.running == 0 && m.VM.phase.Load() != 0 {
		sh.stop.Signal()
	}
	sh.mu.Unlock()
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
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for sh.running > 0 {
			sh.stop.Wait()
		}
		sh.mu.Unlock()
	}

	defer func() {
		v.phase.Store(0)
		for i := range v.shards {
			sh := &v.shards[i]
			sh.mu.Lock()
			sh.start.Broadcast()
			sh.mu.Unlock()
		}
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

// Collect performs a synchronous collection from a non-mutator
// goroutine (e.g. the harness between workload phases). CollectNow
// implementations are self-contained: they serialise against other
// collections themselves.
func (v *VM) Collect() { v.Plan.CollectNow("explicit") }

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

	// Rendezvous placement: the shard this mutator is pinned to, and
	// its index in the shard's mutator list (maintained by swap-remove
	// under the shard lock).
	shard    *mutShard
	shardIdx int

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
		shard:    &v.shards[id%MutatorShards],
		rngState: uint64(id)*0x9e3779b97f4a7c15 + 1,
	}
	m.acquireRunning()
	m.registered = time.Now()
	sh := m.shard
	sh.mu.Lock()
	m.shardIdx = len(sh.muts)
	sh.muts = append(sh.muts, m)
	sh.regSumNs += m.registered.Sub(v.sigEpoch).Nanoseconds()
	sh.live.Store(int64(len(sh.muts)))
	sh.mu.Unlock()
	v.Plan.BindMutator(m)
	return m
}

// Deregister removes the mutator; its roots are no longer scanned.
// The calling goroutine holds the running token throughout, so no
// stop-the-world (and hence no root scan) can overlap the removal.
func (m *Mutator) Deregister() {
	m.VM.Plan.UnbindMutator(m)
	sh := m.shard
	sh.mu.Lock()
	// Capture the final busy time inside the critical section: a sample
	// taken just before it sees the live mutator's (strictly smaller)
	// running busy, one taken after sees the banked value, so sampled
	// busy time is monotone across the retirement.
	busy := time.Since(m.registered) - time.Duration(m.parkedNs.Load())
	last := len(sh.muts) - 1
	sh.muts[m.shardIdx] = sh.muts[last]
	sh.muts[m.shardIdx].shardIdx = m.shardIdx
	sh.muts[last] = nil
	sh.muts = sh.muts[:last]
	// Retire the mutator's aggregates and bank its final busy time in
	// the same critical section, so a ConcSignals sample sees either
	// the live mutator or its banked retirement — never neither.
	sh.regSumNs -= m.registered.Sub(m.VM.sigEpoch).Nanoseconds()
	sh.parkSumNs -= m.parkedNs.Load()
	sh.doneBusyNs += int64(busy)
	sh.live.Store(int64(len(sh.muts)))
	sh.mu.Unlock()
	m.VM.Stats.AddMutatorBusy(busy)
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
// fast path is one atomic load of the phase fence — no lock, no shard.
func (m *Mutator) PollPark() {
	if m.VM.phase.Load() != 0 {
		t0 := time.Now()
		m.releaseRunning()
		m.acquireRunning()
		m.recordPark(time.Since(t0))
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

// recordPark accounts a completed park on the mutator and on its
// shard's cumulative aggregate (the ConcSignals input). The shard lock
// keeps the aggregate consistent with the per-mutator counter for
// samplers; it is the mutator's own shard, so the acquisition is
// uncontended in steady state.
func (m *Mutator) recordPark(d time.Duration) {
	sh := m.shard
	sh.mu.Lock()
	sh.parkSumNs += int64(d)
	sh.mu.Unlock()
	m.parkedNs.Add(int64(d))
}

// Blocked executes f with the mutator's running token released, so that
// stop-the-world can proceed while the mutator waits on channels, locks
// or I/O. f must not touch the heap.
func (m *Mutator) Blocked(f func()) {
	t0 := time.Now()
	m.releaseRunning()
	f()
	m.acquireRunning()
	m.recordPark(time.Since(t0))
}

// BlockedSleep sleeps with the running token released — equivalent to
// Blocked(func() { time.Sleep(d) }) but without the closure, so the
// open-loop request pacer allocates nothing per request.
func (m *Mutator) BlockedSleep(d time.Duration) {
	t0 := time.Now()
	m.releaseRunning()
	time.Sleep(d)
	m.acquireRunning()
	m.recordPark(time.Since(t0))
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

// PayloadWords returns the payload size in words.
func (m *Mutator) PayloadWords(src obj.Ref) int {
	return m.VM.OM.PayloadBytes(m.VM.OM.Resolve(src)) / mem.WordSize
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

// SnapshotRoots appends every root (all mutator shadow stacks plus the
// global root slots) to dst. It must only be called while the world is
// stopped. SnapshotRootsParallel fans the scan out over a worker pool.
func (v *VM) SnapshotRoots(dst []obj.Ref) []obj.Ref {
	for i := range v.shards {
		for _, m := range v.shards[i].muts {
			for _, r := range m.Roots {
				if !r.IsNil() {
					dst = append(dst, r)
				}
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

// EachMutator invokes f for every registered mutator. Must only be
// called while the world is stopped (or before mutators start).
// EachMutatorParallel fans the walk out over a worker pool.
func (v *VM) EachMutator(f func(m *Mutator)) {
	for i := range v.shards {
		for _, m := range v.shards[i].muts {
			f(m)
		}
	}
}

// FixRoots rewrites every root slot through f (used by copying
// collectors to redirect references to evacuated objects). World must be
// stopped. FixRootsParallel fans the rewrite out over a worker pool.
func (v *VM) FixRoots(f func(obj.Ref) obj.Ref) {
	for i := range v.shards {
		for _, m := range v.shards[i].muts {
			for j, r := range m.Roots {
				if !r.IsNil() {
					m.Roots[j] = f(r)
				}
			}
		}
	}
	for i, r := range v.Globals {
		if !r.IsNil() {
			v.Globals[i] = f(r)
		}
	}
}

// ConcSignals returns the cumulative CPU-accounting inputs a windowed
// estimator differences: total mutator busy time — live mutators'
// elapsed-minus-parked time plus the banked busy time of mutators that
// already deregistered — total collector work, total stop-the-world
// time, and the live mutator count. The benchmark's gc_cpu_frac is
// derived from it.
//
// The busy term is O(MutatorShards), not O(mutators): each shard
// maintains cumulative registration/park/retired-busy sums, and a
// shard's live busy time is len(muts)*now − regSum − parkSum — exactly
// the per-mutator sum Σ(now−registered−parked), reassociated (Time
// subtraction is exact int64 monotonic-clock arithmetic, so the
// reassociation is bit-for-bit, not approximate). Each shard's sums
// are read under its lock, and registration, retirement and park
// recording update them atomically with respect to sampling, so busy
// time is monotone across register/deregister churn; only a park in
// flight at the sample instant is counted as busy until it completes,
// so a window closing mid-park can observe a small negative delta.
func (v *VM) ConcSignals() (mutBusy, gcWork, pause time.Duration, mutators int) {
	var busy int64
	var count int
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		// The instant is read inside the lock so it postdates every
		// registration the shard sums include: each shard term is then
		// individually monotone across samples, and no registration can
		// land between the clock read and the sums and contribute a
		// negative sliver. Shards are therefore sampled at slightly
		// staggered instants; the consumers difference cumulative
		// windows, for which the stagger is harmless.
		nowNs := time.Since(v.sigEpoch).Nanoseconds()
		busy += int64(len(sh.muts))*nowNs - sh.regSumNs - sh.parkSumNs + sh.doneBusyNs
		count += len(sh.muts)
		sh.mu.Unlock()
	}
	return time.Duration(busy), v.Stats.GCWork(), v.Stats.TotalPause(), count
}

// busyAt computes total mutator busy time (live plus retired) at the
// single instant nowNs (an offset from sigEpoch) from the shard
// aggregates. It is the fixed-instant form of ConcSignals' busy term,
// used by the walk-equivalence tests.
func (v *VM) busyAt(nowNs int64) (busyNs int64, mutators int) {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		busyNs += int64(len(sh.muts))*nowNs - sh.regSumNs - sh.parkSumNs + sh.doneBusyNs
		mutators += len(sh.muts)
		sh.mu.Unlock()
	}
	return busyNs, mutators
}

// concSignalsWalk is the serial per-mutator reference the sharded
// aggregates replace: it walks every registered mutator under the shard
// locks and sums elapsed-minus-parked at the given instant (plus the
// banked busy of retired mutators, which has no walkable form). Kept as
// the oracle for the equivalence tests.
func (v *VM) concSignalsWalk(now time.Time) (mutBusyNs int64, mutators int) {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for _, m := range sh.muts {
			mutBusyNs += now.Sub(m.registered).Nanoseconds() - m.parkedNs.Load()
			mutators++
		}
		mutBusyNs += sh.doneBusyNs
		sh.mu.Unlock()
	}
	return mutBusyNs, mutators
}

// MutatorCount returns the number of registered mutators. Approximate if
// called while the world is running.
func (v *VM) MutatorCount() int {
	var n int64
	for i := range v.shards {
		n += v.shards[i].live.Load()
	}
	return int(n)
}
