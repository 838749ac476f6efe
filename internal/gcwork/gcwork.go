// Package gcwork provides the parallel collection machinery: a
// persistent, lock-free work-stealing scheduler that drains dynamically
// generated work (mark stacks, increment and decrement queues), a
// dynamically load-balanced ParallelFor for static partitioning, a
// between-pause worker lending API for concurrent collection phases,
// and segmented address buffers used by write barriers and RC queues.
//
// LXR uses parallelism in every collection phase (§3.5); the same pool
// drives the baseline collectors' parallel tracing and copying. The
// scheduler is built for sub-millisecond pauses: worker goroutines are
// created once per Pool and parked between phases (no goroutine spawn
// inside a pause), work distribution uses per-worker Chase-Lev deques
// (no mutex on any publish, pop or steal), and termination is detected
// with atomic idle/epoch counters (no condition-variable broadcast
// storm).
//
// # Worker lending
//
// Between pauses the pool's workers are parked and idle, while the
// concurrent phase drivers (LXR's lazy-decrement/SATB thread, the
// baselines' mark controllers) drain work single-threaded. Lend hands
// up to n parked workers to such a driver for one interruptible drain;
// Reclaim is the hand-back barrier. A loan holds the pool's dispatch
// lock from Lend to Reclaim, so no pause phase (Drain, DrainSegs,
// ParallelFor) can start while a loan is outstanding — and conversely a
// loan cannot start inside a pause. Pauses that must begin while a loan
// is draining call Loan.Interrupt, which makes the borrowed workers
// stop within one work item and preserve every unprocessed address for
// Reclaim to return.
//
// # Panic containment
//
// A panic on a worker goroutine does not kill the process: it is
// captured, the phase is aborted (abandoned work is discarded so the
// pool stays reusable), and the panic is re-raised on the goroutine
// that called Drain, DrainSegs, ParallelFor or Loan.Reclaim, wrapped in
// *WorkerPanic. Callers that convert collection failures into recorded
// data points (the workload harness) therefore observe worker failures
// exactly like coordinator failures.
package gcwork

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/mem"
	"lxr/internal/trace"
)

// chunkSize is the work-stealing granularity: workers share work in
// chunks of addresses, which also naturally partitions very large
// reference arrays (the scalability fix noted in §3.5).
const chunkSize = 512

// PrefetchAhead is how many pops ahead of the item in hand a drain
// should prefetch for (Worker.Ahead): far enough that the line has
// arrived by the time the item is popped — a pause's per-item work is
// a few tens of nanoseconds against a memory miss of about a hundred —
// and near enough that the items pushed in between rarely displace it.
const PrefetchAhead = 8

// Pool is a reusable parallel worker pool. Its N worker goroutines are
// created on first use and persist — parked on their wake channels —
// until Stop, so consecutive collection phases (and consecutive
// collections) reuse the same workers and their warmed-up local stacks.
type Pool struct {
	N int // number of workers

	workers []*Worker
	wsnap   atomic.Pointer[[]*Worker] // started workers, for lock-free telemetry reads
	wake    []chan *job
	alive   sync.WaitGroup
	once    sync.Once
	stopped bool

	// runMu serialises phase dispatch (Drain/ParallelFor callers) and
	// worker loans (Lend holds it until Reclaim — the hand-back
	// barrier). It is never touched by workers: the publish/pop/steal
	// hot paths inside a phase are mutex-free.
	runMu sync.Mutex

	inj injector // phase seed segments

	// Termination state for the drain in progress.
	idle     atomic.Int32  // workers currently searching for work
	pubEpoch atomic.Uint64 // bumped on every chunk publication
	done     atomic.Bool   // drain-complete flag
	active   atomic.Int32  // workers participating in the current phase

	spawned atomic.Int64 // worker goroutines ever created (telemetry)

	loans     atomic.Int64 // loans ever started (telemetry)
	loanItems atomic.Int64 // items processed on loaned workers (telemetry)

	// tracer, when non-nil, receives loan lend→reclaim spans and
	// interrupt instants on the concurrent timeline shard. Set before
	// the pool is first used.
	tracer *trace.Tracer
}

// NewPool creates a pool with n workers (minimum 1). Workers are started
// lazily on the first Drain, ParallelFor or Lend.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{N: n}
}

// SetTracer attaches a GC event tracer to the pool (nil detaches).
// Call before the pool's first use — the field is read unsynchronised
// on loan paths.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// Spawned returns how many worker goroutines this pool has ever created.
// After any number of phases it stays at N — the persistence guarantee
// tests assert.
func (p *Pool) Spawned() int64 { return p.spawned.Load() }

// WorkerStat is one worker's lifetime utilization, split by phase kind.
type WorkerStat struct {
	// PauseItems counts work items (addresses or ParallelFor indices)
	// the worker processed inside phase dispatches — Drain, DrainSegs
	// and ParallelFor, which all run with the world stopped.
	PauseItems int64
	// LoanItems counts work items the worker processed while on loan to
	// a concurrent phase driver between pauses.
	LoanItems int64
}

// WorkerStats returns each worker's utilization counters. Safe to call
// at any time — it takes no locks, so it never blocks behind an
// outstanding loan; counters are updated once per phase, not per item,
// so a mid-phase sample lags by at most the phase in progress.
func (p *Pool) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, p.N)
	ws := p.wsnap.Load()
	if ws == nil {
		return out // workers not started: all zeros
	}
	for i, w := range *ws {
		out[i] = WorkerStat{
			PauseItems: w.pauseItems.Load(),
			LoanItems:  w.loanItems.Load(),
		}
	}
	return out
}

// LoanStats returns how many loans the pool has served and how many
// work items were processed on loaned workers in total.
func (p *Pool) LoanStats() (loans, items int64) {
	return p.loans.Load(), p.loanItems.Load()
}

// job is one parked-worker activation: either a drain (f set) or a
// parallel-for (pf set).
type job struct {
	// drain
	setup    func(w *Worker)
	f        func(w *Worker, a mem.Address)
	teardown func(w *Worker)

	// parallel-for
	pf    func(worker, start, end int)
	n     int
	next  *atomic.Int64
	chunk int

	loan *Loan       // non-nil when this activation is a between-pause loan
	intr atomic.Bool // loan-interrupt flag (set by Loan.Interrupt)

	// First worker panic of the job, re-raised on the dispatching
	// caller (panic containment).
	panicMu    sync.Mutex
	panicVal   any
	panicStack []byte

	wg *sync.WaitGroup
}

// recordPanic stores the first worker panic of the job.
func (jb *job) recordPanic(v any, stack []byte) {
	jb.panicMu.Lock()
	if jb.panicVal == nil {
		jb.panicVal, jb.panicStack = v, stack
	}
	jb.panicMu.Unlock()
}

// takePanic returns the recorded worker panic, if any.
func (jb *job) takePanic() (any, []byte) {
	jb.panicMu.Lock()
	defer jb.panicMu.Unlock()
	return jb.panicVal, jb.panicStack
}

// WorkerPanic wraps a panic that occurred on a pool worker goroutine.
// It is re-raised on the goroutine that dispatched the phase (Drain,
// DrainSegs, ParallelFor) or reclaimed the loan, carrying the original
// panic value and the worker goroutine's stack at the time of panic.
type WorkerPanic struct {
	Value any    // the worker's original panic value
	Stack []byte // the worker goroutine's stack trace
}

// Error implements error so recover sites can treat worker panics
// uniformly with error values.
func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("gcwork: worker panic: %v", e.Value)
}

// String returns the panic value with the captured worker stack.
func (e *WorkerPanic) String() string {
	return fmt.Sprintf("gcwork: worker panic: %v\nworker stack:\n%s", e.Value, e.Stack)
}

// Worker is the per-goroutine context handed to processing functions.
// Processing functions may push new work items, which are drained before
// the Drain call returns. Workers are persistent: the same N Worker
// values serve every phase of the pool's lifetime.
type Worker struct {
	ID    int
	local []mem.Address
	dq    deque
	pool  *Pool
	rng   uint64
	// Scratch lets phases carry per-worker state (e.g. copy allocators).
	// It is cleared when the phase ends.
	Scratch any

	pauseItems atomic.Int64 // items processed in STW phases (telemetry)
	loanItems  atomic.Int64 // items processed on loan (telemetry)
}

// Push adds a work item for later processing. When the local stack grows
// past two chunks, one chunk is published on the worker's own deque for
// stealing.
func (w *Worker) Push(a mem.Address) {
	w.local = append(w.local, a)
	if len(w.local) >= 2*chunkSize {
		w.publish()
	}
}

// Ahead returns the item that the k-th pop from now (k ≥ 1) will hand
// this worker if nothing is pushed in between, so a processing function
// can prefetch for it while it works on the item in hand. ok is false
// when the local stack holds fewer than k items: the lookahead stops at
// the stack's floor and never sees the worker's published chunks, the
// injector or other workers' deques, whose next taker is not known.
func (w *Worker) Ahead(k int) (a mem.Address, ok bool) {
	if n := len(w.local); k >= 1 && k <= n {
		return w.local[n-k], true
	}
	return mem.Nil, false
}

// publish moves the oldest chunkSize local items onto the worker's deque
// and announces the publication to idle workers via the epoch counter.
func (w *Worker) publish() {
	c := make(chunk, chunkSize)
	copy(c, w.local[:chunkSize])
	w.local = append(w.local[:0], w.local[chunkSize:]...)
	w.dq.push(&c)
	w.pool.pubEpoch.Add(1)
}

// next returns the worker's next work item, acquiring more work from its
// deque, the injector or other workers as needed. ok=false means the
// whole drain has terminated (or the phase's loan was interrupted).
func (w *Worker) next(jb *job) (mem.Address, bool) {
	for {
		if n := len(w.local); n > 0 {
			a := w.local[n-1]
			w.local = w.local[:n-1]
			return a, true
		}
		if !w.acquire(jb) {
			return mem.Nil, false
		}
	}
}

// acquire refills the local stack: own deque first, then a seed segment
// from the injector, then stealing. When nothing is visible it enters
// the idle protocol, returning false on global termination.
func (w *Worker) acquire(jb *job) bool {
	p := w.pool
	for {
		if c := w.dq.pop(); c != nil {
			w.local = append(w.local, *c...)
			return true
		}
		if s := p.inj.pop(); s != nil {
			w.local = append(w.local, s...)
			return true
		}
		if w.stealOnce() {
			return true
		}
		if !p.awaitWork(jb) {
			return false
		}
	}
}

// stealOnce sweeps the other workers' deques once, starting from a
// random victim, and ingests the first chunk it wins.
func (w *Worker) stealOnce() bool {
	p := w.pool
	n := len(p.workers)
	if n < 2 {
		return false
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(off+i)%n]
		if v == w {
			continue
		}
		for {
			c, contended := v.dq.steal()
			if c != nil {
				w.local = append(w.local, *c...)
				return true
			}
			if !contended {
				break
			}
			// Lost the CAS to another thief: the victim may still hold
			// work, retry it before moving on.
		}
	}
	return false
}

// nextRand is a per-worker xorshift64 (steal-victim randomisation).
func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// idleSpinLimit bounds busy-waiting: beyond it idle workers sleep in
// short quanta so an imbalanced phase does not burn a core per spinner.
const idleSpinLimit = 128

// awaitWork parks the calling worker in the idle protocol until either
// new work becomes visible (true) or the drain terminates (false).
//
// Termination detection is lock-free: a worker that observes all
// participating workers idle sweeps every deque and the injector; if
// the sweep finds nothing, the idle count still reads the participant
// count, and no chunk was published since the sweep began (the epoch
// counter is unchanged), there can be no work anywhere — workers only
// create work while non-idle — and the drain is declared complete. A
// pending loan interrupt also terminates the wait: interrupted workers
// leave their unprocessed work in place for Loan.Reclaim to harvest.
func (p *Pool) awaitWork(jb *job) bool {
	p.idle.Add(1)
	spins := 0
	for {
		if p.done.Load() || jb.intr.Load() {
			return false
		}
		if p.workVisible() {
			p.idle.Add(-1)
			return true
		}
		if n := p.active.Load(); p.idle.Load() == n {
			e0 := p.pubEpoch.Load()
			if !p.workVisible() && p.idle.Load() == n && p.pubEpoch.Load() == e0 {
				p.done.Store(true)
				return false
			}
		}
		spins++
		if spins < idleSpinLimit {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// workVisible reports whether any published work exists.
func (p *Pool) workVisible() bool {
	if !p.inj.empty() {
		return true
	}
	for _, w := range p.workers {
		if !w.dq.empty() {
			return true
		}
	}
	return false
}

// start lazily creates the persistent workers.
func (p *Pool) start() {
	p.once.Do(func() {
		workers := make([]*Worker, p.N)
		p.wake = make([]chan *job, p.N)
		for i := 0; i < p.N; i++ {
			w := &Worker{ID: i, pool: p, rng: uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
			w.dq.init()
			workers[i] = w
			p.wake[i] = make(chan *job, 1)
		}
		p.workers = workers
		p.wsnap.Store(&workers)
		for i := 0; i < p.N; i++ {
			p.spawned.Add(1)
			p.alive.Add(1)
			go p.workerLoop(workers[i], p.wake[i])
		}
	})
}

// Stop terminates the pool's worker goroutines. The pool must not be
// used afterwards. Safe to call multiple times, or on a pool whose
// workers never started. An outstanding loan blocks Stop until it is
// reclaimed.
func (p *Pool) Stop() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	for _, ch := range p.wake {
		close(ch)
	}
	p.alive.Wait()
}

// workerLoop parks on the wake channel between phases.
func (p *Pool) workerLoop(w *Worker, wake chan *job) {
	defer p.alive.Done()
	for jb := range wake {
		p.runJob(w, jb)
	}
}

// runJob executes one activation with panic containment: a panic in the
// processing function is recorded on the job (for the dispatcher to
// re-raise), the phase's termination flag is raised so sibling workers
// stop promptly, and this worker's abandoned local work is dropped.
func (p *Pool) runJob(w *Worker, jb *job) {
	defer func() {
		if r := recover(); r != nil {
			jb.recordPanic(r, debug.Stack())
			p.done.Store(true)
			w.local = w.local[:0]
			w.Scratch = nil
		}
		jb.wg.Done()
	}()
	if jb.pf != nil {
		w.runFor(jb)
	} else {
		w.runDrain(jb)
	}
}

func (w *Worker) runDrain(jb *job) {
	if jb.setup != nil {
		jb.setup(w)
	}
	p := w.pool
	items := int64(0)
	for {
		// A loan interrupt stops processing within one item; the
		// worker's remaining local stack is left intact for Reclaim.
		// Phase drains (loan == nil) skip the flag load entirely.
		if jb.loan != nil && jb.intr.Load() {
			break
		}
		a, ok := w.next(jb)
		if !ok {
			break
		}
		jb.f(w, a)
		items++
	}
	if jb.teardown != nil {
		jb.teardown(w)
	}
	w.Scratch = nil
	if jb.loan != nil {
		w.loanItems.Add(items)
		p.loanItems.Add(items)
	} else {
		w.pauseItems.Add(items)
		w.local = w.local[:0] // empty on normal termination; defensive
	}
}

func (w *Worker) runFor(jb *job) {
	items := int64(0)
	for {
		start := int(jb.next.Add(int64(jb.chunk))) - jb.chunk
		if start >= jb.n {
			break
		}
		end := start + jb.chunk
		if end > jb.n {
			end = jb.n
		}
		jb.pf(w.ID, start, end)
		items += int64(end - start)
	}
	w.pauseItems.Add(items)
}

// scavenge collects every unprocessed address left in worker locals,
// worker deques and the injector. It must only run while all workers
// are parked (after the phase's WaitGroup has been waited on), when no
// concurrent deque operations are possible.
func (p *Pool) scavenge() [][]mem.Address {
	var out [][]mem.Address
	for _, w := range p.workers {
		if len(w.local) > 0 {
			out = append(out, w.local)
			w.local = nil
		}
		for {
			c := w.dq.pop()
			if c == nil {
				break
			}
			out = append(out, *c)
		}
	}
	for {
		s := p.inj.pop()
		if s == nil {
			break
		}
		out = append(out, s)
	}
	return out
}

// dispatch resets per-phase termination state, seeds the injector and
// wakes the first n workers with jb.
func (p *Pool) dispatch(jb *job, n int, segs [][]mem.Address) {
	p.done.Store(false)
	p.idle.Store(0)
	p.active.Store(int32(n))
	for _, s := range segs {
		for i := 0; i < len(s); i += chunkSize {
			end := min(i+chunkSize, len(s))
			p.inj.push(s[i:end:end])
		}
	}
	jb.wg.Add(n)
	for i := 0; i < n; i++ {
		p.wake[i] <- jb
	}
}

// rethrowWorkerPanic propagates a contained worker panic to the
// dispatching caller. Abandoned work is scavenged first so the pool's
// structures are empty when the next phase starts.
func (p *Pool) rethrowWorkerPanic(jb *job) {
	if v, stack := jb.takePanic(); v != nil {
		p.scavenge()
		panic(&WorkerPanic{Value: v, Stack: stack})
	}
}

// Drain processes the seed items and everything transitively pushed by
// f, in parallel across the pool's workers. It returns when all work is
// exhausted. setup, when non-nil, runs once per worker before processing
// (to install Scratch state); teardown runs after. The seed slice is
// only read during the call. A worker panic aborts the drain and is
// re-raised here wrapped in *WorkerPanic.
func (p *Pool) Drain(seed []mem.Address, setup func(w *Worker), f func(w *Worker, a mem.Address), teardown func(w *Worker)) {
	var segs [][]mem.Address
	if len(seed) > 0 {
		segs = [][]mem.Address{seed}
	}
	p.DrainSegs(segs, setup, f, teardown)
}

// DrainSegs is Drain with segment-granular seed injection: each segment
// is handed to the scheduler as-is (split into steal-granularity views —
// no flattening copy), so address buffers and shared queues can pass
// their internal segments straight through.
func (p *Pool) DrainSegs(segs [][]mem.Address, setup func(w *Worker), f func(w *Worker, a mem.Address), teardown func(w *Worker)) {
	p.start()
	p.runMu.Lock()
	defer p.runMu.Unlock()
	var wg sync.WaitGroup
	jb := &job{setup: setup, f: f, teardown: teardown, wg: &wg}
	p.dispatch(jb, p.N, segs)
	wg.Wait()
	p.rethrowWorkerPanic(jb)
}

// ParallelFor runs f over [0, n) split into contiguous ranges across the
// pool's workers. Ranges are claimed dynamically from an atomic cursor,
// so uneven per-index costs (block sweeping) self-balance. It is used
// for statically partitionable phases such as buffer processing and
// block sweeping. A worker panic aborts the phase and is re-raised here
// wrapped in *WorkerPanic.
func (p *Pool) ParallelFor(n int, f func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	p.start()
	p.runMu.Lock()
	defer p.runMu.Unlock()
	chunk := n / (4 * p.N)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	jb := &job{pf: f, n: n, next: &next, chunk: chunk, wg: &wg}
	wg.Add(p.N)
	for i := 0; i < p.N; i++ {
		p.wake[i] <- jb
	}
	wg.Wait()
	p.rethrowWorkerPanic(jb)
}

// --- worker lending ------------------------------------------------------------

// Loan is a between-pause borrow of pool workers, started by Pool.Lend
// and ended by Reclaim. While a loan is outstanding the pool's dispatch
// lock is held, so no pause phase can begin until the loan is reclaimed
// — the hand-back barrier the concurrent/pause ownership protocol
// relies on.
type Loan struct {
	p  *Pool
	jb *job

	// Workers borrowed (loans use worker IDs 0..Workers-1).
	Workers int

	reclaimed bool
	noop      bool

	// Tracing state: lend time and the pool's loan-item total at lend,
	// so Reclaim can attribute exactly this loan's items (loans are
	// serialised by runMu, so the delta is never mixed across loans).
	traceStart time.Time
	traceItem0 int64
	// rem is the unprocessed remainder: seeded at Lend for no-op loans
	// (stopped pool), harvested by Reclaim otherwise. It is retained on
	// the loan so an interrupted loan's work can be resumed — across
	// all pause workers via ResumeInPause, or folded into the driver's
	// next loan via TakeRemainder — without re-chunking through a flat
	// copy.
	rem [][]mem.Address
}

// Lend borrows up to n parked workers (clamped to the pool size) and
// starts draining segs — plus everything transitively pushed by f — on
// them. It returns immediately; the caller continues concurrently and
// must call Reclaim exactly once to wait for completion and release the
// pool. setup/teardown run once per borrowed worker, exactly as in
// Drain. Lend blocks while a pause phase is running and, once it
// returns, blocks pause phases until Reclaim — loans and phases never
// overlap.
//
// On a stopped pool Lend returns an inert loan whose Reclaim hands back
// the seed segments unprocessed.
func (p *Pool) Lend(n int, segs [][]mem.Address, setup func(w *Worker), f func(w *Worker, a mem.Address), teardown func(w *Worker)) *Loan {
	p.runMu.Lock()
	if p.stopped {
		// Checked before start(): lending against a stopped pool must
		// not spawn workers that could never be stopped again.
		p.runMu.Unlock()
		return &Loan{noop: true, rem: segs}
	}
	p.start()
	if n < 1 {
		n = 1
	}
	if n > p.N {
		n = p.N
	}
	var wg sync.WaitGroup
	jb := &job{setup: setup, f: f, teardown: teardown, wg: &wg}
	l := &Loan{p: p, jb: jb, Workers: n}
	jb.loan = l
	if p.tracer != nil {
		l.traceStart = time.Now()
		l.traceItem0 = p.loanItems.Load()
	}
	p.dispatch(jb, n, segs)
	p.loans.Add(1)
	return l
}

// Interrupt asks the loaned workers to stop promptly (within one work
// item each), preserving all unprocessed work for Reclaim to return.
// Safe to call from any goroutine, at any time, more than once — a
// pause that wants the pool calls it before waiting on the concurrent
// driver's quiescence.
func (l *Loan) Interrupt() {
	if l.noop {
		return
	}
	if l.jb.intr.CompareAndSwap(false, true) {
		if tr := l.p.tracer; tr != nil {
			tr.Instant(trace.ShardConc, trace.NameInterrupt, uint64(l.Workers), 0)
		}
	}
}

// LoanRef is a single-slot, thread-safe published reference to a
// driver's outstanding loan, shared with the pauses (or shutdown paths)
// that must be able to interrupt it. It closes the adopt race: an
// Interrupt arriving before the driver has adopted its freshly created
// loan is remembered (armed) and applied on adoption. The zero value
// is ready to use; all methods take only the ref's own lock, so they
// may be called while holding a driver's state mutex.
type LoanRef struct {
	mu    sync.Mutex
	loan  *Loan
	armed bool // interrupt requested; applies to the next adopted loan
}

// Adopt publishes l as the outstanding loan. If an interrupt is armed —
// a pause or shutdown requested it before adoption — l is interrupted
// immediately.
func (r *LoanRef) Adopt(l *Loan) {
	r.mu.Lock()
	r.loan = l
	if r.armed {
		l.Interrupt()
	}
	r.mu.Unlock()
}

// Drop clears the published loan after Reclaim. A stale Interrupt from
// a racing pause is harmless: interrupts are scoped to the loan's own
// job.
func (r *LoanRef) Drop() {
	r.mu.Lock()
	r.loan = nil
	r.mu.Unlock()
}

// Interrupt interrupts the published loan, if any, and stays armed so
// that a loan adopted later is interrupted at adoption. Callers Disarm
// when the condition that requested the interrupt (pause quiescence,
// shutdown) has passed.
func (r *LoanRef) Interrupt() {
	r.mu.Lock()
	r.armed = true
	if r.loan != nil {
		r.loan.Interrupt()
	}
	r.mu.Unlock()
}

// Disarm clears a previously armed interrupt; the driver may lend
// uninterrupted again.
func (r *LoanRef) Disarm() {
	r.mu.Lock()
	r.armed = false
	r.mu.Unlock()
}

// Reclaim waits for the borrowed workers to park, releases the pool for
// pause phases, and returns every unprocessed address (always empty
// unless the loan was interrupted). It must be called exactly once, on
// the goroutine that called Lend or one synchronised with it. A worker
// panic during the loan is re-raised here wrapped in *WorkerPanic.
//
// The remainder is also retained on the loan, for HasRemainder,
// TakeRemainder and ResumeInPause. A caller must either consume the
// returned segments or leave them for those accessors — not both, or
// the work would be processed twice.
func (l *Loan) Reclaim() [][]mem.Address {
	if l.noop {
		return l.rem
	}
	if l.reclaimed {
		panic("gcwork: Loan.Reclaim called twice")
	}
	l.reclaimed = true
	l.jb.wg.Wait()
	l.rem = l.p.scavenge()
	if tr := l.p.tracer; tr != nil {
		// Recorded before the pool is released so loan spans on the
		// concurrent timeline never overlap the next loan's span.
		tr.Span(trace.ShardConc, trace.NameLoan, l.traceStart, time.Since(l.traceStart),
			uint64(l.Workers), uint64(l.p.loanItems.Load()-l.traceItem0))
	}
	l.p.runMu.Unlock()
	if v, stack := l.jb.takePanic(); v != nil {
		panic(&WorkerPanic{Value: v, Stack: stack})
	}
	return l.rem
}

// HasRemainder reports whether the reclaimed loan retains unprocessed
// work.
func (l *Loan) HasRemainder() bool {
	for _, s := range l.rem {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// TakeRemainder removes and returns the retained remainder, so a driver
// can fold an interrupted loan's unfinished work — segment-granular —
// into its next loan.
func (l *Loan) TakeRemainder() [][]mem.Address {
	rem := l.rem
	l.rem = nil
	return rem
}

// ResumeInPause re-dispatches an interrupted loan's remainder across
// ALL of the pool's workers as a pause phase: the retained segments
// seed DrainSegs directly, so the pause finishes the loan's work at
// full parallel width without re-chunking it through an intermediate
// flat batch. Must be called after Reclaim, with the world stopped and
// the lending driver quiescent (the pool's dispatch lock is free —
// Reclaim released it). Returns whether any work was dispatched; a loan
// on a stopped pool resumes nothing (the remainder is dropped, as at
// shutdown).
func (l *Loan) ResumeInPause(setup func(w *Worker), f func(w *Worker, a mem.Address), teardown func(w *Worker)) bool {
	if l.noop || !l.HasRemainder() {
		return false
	}
	l.p.DrainSegs(l.TakeRemainder(), setup, f, teardown)
	return true
}
