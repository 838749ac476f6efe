// Package gcwork provides the parallel collection machinery: a
// persistent, lock-free work-stealing scheduler that drains dynamically
// generated work (mark stacks, increment and decrement queues), a
// dynamically load-balanced ParallelFor for static partitioning, and
// segmented address buffers used by write barriers and RC queues.
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
// Between pauses the pool's workers are parked: concurrent collection
// work (LXR's lazy decrements and SATB trace, the baselines' concurrent
// marks) runs on each collector's own controller goroutine, not here.
//
// # Panic containment
//
// A panic on a worker goroutine does not kill the process: it is
// captured, the phase is aborted (abandoned work is discarded so the
// pool stays reusable), and the panic is re-raised on the goroutine
// that called Drain, DrainSegs or ParallelFor, wrapped in
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

	// runMu serialises phase dispatch (Drain/ParallelFor callers). It is
	// never touched by workers: the publish/pop/steal hot paths inside a
	// phase are mutex-free.
	runMu sync.Mutex

	inj injector // phase seed segments

	// Termination state for the drain in progress.
	idle     atomic.Int32  // workers currently searching for work
	pubEpoch atomic.Uint64 // bumped on every chunk publication
	done     atomic.Bool   // drain-complete flag

	spawned atomic.Int64 // worker goroutines ever created (telemetry)
}

// NewPool creates a pool with n workers (minimum 1). Workers are started
// lazily on the first Drain or ParallelFor.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{N: n}
}

// Spawned returns how many worker goroutines this pool has ever created.
// After any number of phases it stays at N — the persistence guarantee
// tests assert.
func (p *Pool) Spawned() int64 { return p.spawned.Load() }

// WorkerStat is one worker's lifetime utilization.
type WorkerStat struct {
	// PauseItems counts work items (addresses or ParallelFor indices)
	// the worker processed inside phase dispatches — Drain, DrainSegs
	// and ParallelFor, which all run with the world stopped.
	PauseItems int64
}

// WorkerStats returns each worker's utilization counters. Safe to call
// at any time — it takes no locks, so it never blocks behind a phase;
// counters are updated once per phase, not per item, so a mid-phase
// sample lags by at most the phase in progress.
func (p *Pool) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, p.N)
	ws := p.wsnap.Load()
	if ws == nil {
		return out // workers not started: all zeros
	}
	for i, w := range *ws {
		out[i] = WorkerStat{PauseItems: w.pauseItems.Load()}
	}
	return out
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
// DrainSegs, ParallelFor), carrying the original
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
// whole drain has terminated.
func (w *Worker) next() (mem.Address, bool) {
	for {
		if n := len(w.local); n > 0 {
			a := w.local[n-1]
			w.local = w.local[:n-1]
			return a, true
		}
		if !w.acquire() {
			return mem.Nil, false
		}
	}
}

// acquire refills the local stack: own deque first, then a seed segment
// from the injector, then stealing. When nothing is visible it enters
// the idle protocol, returning false on global termination.
func (w *Worker) acquire() bool {
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
		if !p.awaitWork() {
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
// create work while non-idle — and the drain is declared complete.
func (p *Pool) awaitWork() bool {
	p.idle.Add(1)
	spins := 0
	n := int32(p.N)
	for {
		if p.done.Load() {
			return false
		}
		if p.workVisible() {
			p.idle.Add(-1)
			return true
		}
		if p.idle.Load() == n {
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
// workers never started.
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
	items := int64(0)
	for {
		a, ok := w.next()
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
	w.pauseItems.Add(items)
	w.local = w.local[:0] // empty on normal termination; defensive
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

// scavenge drops every unprocessed address left in worker locals,
// worker deques and the injector. It must only run while all workers
// are parked (after the phase's WaitGroup has been waited on), when no
// concurrent deque operations are possible.
func (p *Pool) scavenge() {
	for _, w := range p.workers {
		w.local = w.local[:0]
		for w.dq.pop() != nil {
		}
	}
	for p.inj.pop() != nil {
	}
}

// dispatch resets per-phase termination state, seeds the injector and
// wakes every worker with jb.
func (p *Pool) dispatch(jb *job, segs [][]mem.Address) {
	p.done.Store(false)
	p.idle.Store(0)
	for _, s := range segs {
		for i := 0; i < len(s); i += chunkSize {
			end := min(i+chunkSize, len(s))
			p.inj.push(s[i:end:end])
		}
	}
	jb.wg.Add(p.N)
	for i := 0; i < p.N; i++ {
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
	p.dispatch(jb, segs)
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
