// Package gcwork provides the parallel collection machinery: a pool of
// persistent workers that drains dynamically generated work (mark
// stacks, increment and decrement queues), a dynamically load-balanced
// ParallelFor for static partitioning, and segmented address buffers
// used by write barriers and RC queues.
//
// LXR uses parallelism in every collection phase (§3.5); the same pool
// drives the baseline collectors' parallel tracing and copying. Worker
// goroutines are created once per Pool and parked between phases, so no
// goroutine is spawned inside a pause. Each worker runs from its own
// local stack; past two chunks it publishes one on the pool's shared
// chunk stack, where a worker with nothing left takes it. The shared
// stack, the idle count and the done flag sit under one mutex, and idle
// workers wait on a condition variable: a drain is over when the last
// worker to run dry finds every other one already waiting.
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
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lxr/internal/mem"
)

// chunkSize is the sharing granularity: workers share work in chunks of
// addresses, which also naturally partitions very large
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
	// never touched by workers.
	runMu sync.Mutex

	// The drain in progress: its shared chunk stack, how many workers
	// wait on cond for a chunk, and whether the drain is over.
	mu     sync.Mutex
	cond   sync.Cond // L is &mu
	chunks [][]mem.Address
	idle   int
	done   bool

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
	next  atomic.Int64
	chunk int

	// First worker panic of the job, recorded under the pool's mu and
	// re-raised on the dispatching caller (panic containment).
	panicVal   any
	panicStack []byte

	wg sync.WaitGroup
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
	pool  *Pool
	// Scratch lets phases carry per-worker state (e.g. copy allocators).
	// It is cleared when the phase ends.
	Scratch any

	pauseItems atomic.Int64 // items processed in STW phases (telemetry)
}

// Push adds a work item for later processing. When the local stack grows
// past two chunks, its oldest chunk is published on the pool's shared
// stack for an idle worker to take.
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
// the stack's floor and never sees the shared stack, whose next taker is
// not known.
func (w *Worker) Ahead(k int) (a mem.Address, ok bool) {
	if n := len(w.local); k >= 1 && k <= n {
		return w.local[n-k], true
	}
	return mem.Nil, false
}

// publish moves the oldest chunkSize local items onto the shared stack
// and wakes a waiting worker, if there is one.
func (w *Worker) publish() {
	c := make([]mem.Address, chunkSize)
	copy(c, w.local[:chunkSize])
	w.local = append(w.local[:0], w.local[chunkSize:]...)
	p := w.pool
	p.mu.Lock()
	p.chunks = append(p.chunks, c)
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// next returns the worker's next work item, taking a chunk from the
// shared stack when the local one is empty. ok=false means the whole
// drain has terminated.
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

// acquire refills the empty local stack with a chunk from the shared
// one, waiting while other workers still run. It returns false when the
// drain is over: the worker that finds the shared stack empty while
// every other worker already waits ends it, since a worker only creates
// work while it holds some.
func (w *Worker) acquire() bool {
	p := w.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.done {
		if n := len(p.chunks); n > 0 {
			w.local = append(w.local, p.chunks[n-1]...)
			p.chunks[n-1] = nil
			p.chunks = p.chunks[:n-1]
			return true
		}
		if p.idle == p.N-1 {
			p.finish()
			break
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
	return false
}

// finish ends the drain in progress and wakes every waiting worker.
// The caller holds mu.
func (p *Pool) finish() {
	p.done = true
	p.cond.Broadcast()
}

// start lazily creates the persistent workers.
func (p *Pool) start() {
	p.once.Do(func() {
		p.cond.L = &p.mu
		workers := make([]*Worker, p.N)
		p.wake = make([]chan *job, p.N)
		for i := 0; i < p.N; i++ {
			workers[i] = &Worker{ID: i, pool: p}
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
// re-raise), the drain is ended so sibling workers stop once their
// local stacks are empty, and this worker's abandoned local work is
// dropped.
func (p *Pool) runJob(w *Worker, jb *job) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			p.mu.Lock()
			if jb.panicVal == nil {
				jb.panicVal, jb.panicStack = r, stack
			}
			p.finish()
			p.mu.Unlock()
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

// run resets the drain state, seeds the shared stack with zero-copy
// chunk views of segs, runs jb on every worker and re-raises the first
// worker panic. Chunks a panicked phase abandoned are dropped here.
func (p *Pool) run(jb *job, segs [][]mem.Address) {
	p.start()
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.mu.Lock()
	clear(p.chunks)
	p.chunks, p.idle, p.done = p.chunks[:0], 0, false
	for _, s := range segs {
		for i := 0; i < len(s); i += chunkSize {
			end := min(i+chunkSize, len(s))
			p.chunks = append(p.chunks, s[i:end:end])
		}
	}
	p.mu.Unlock()
	jb.wg.Add(p.N)
	for i := 0; i < p.N; i++ {
		p.wake[i] <- jb
	}
	jb.wg.Wait()
	if jb.panicVal != nil {
		panic(&WorkerPanic{Value: jb.panicVal, Stack: jb.panicStack})
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
// is handed to the scheduler as-is (split into chunk-sized views — no
// flattening copy), so address buffers and shared queues can pass
// their internal segments straight through.
func (p *Pool) DrainSegs(segs [][]mem.Address, setup func(w *Worker), f func(w *Worker, a mem.Address), teardown func(w *Worker)) {
	p.run(&job{setup: setup, f: f, teardown: teardown}, segs)
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
	p.run(&job{pf: f, n: n, chunk: max(n/(4*p.N), 1)}, nil)
}
