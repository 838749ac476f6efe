package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lxr"
	"lxr/internal/core"
	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/trace"
)

// warmEpochs is how many GC epochs warm-up runs for at least, so the
// survival predictor, the pacer's budget and the lazy-decrement pipeline
// are in their steady state when the window opens.
const warmEpochs = 20

// subWindow is the length of the sub-windows whose figures a window's
// figures are taken from: long enough for every workload's pause median
// to have its ten samples either side (the slowest has 20 pauses a
// second), short enough that a 45 s window has 22 of them to find a
// quiet one in.
const subWindow = 2 * time.Second

// overrun is how far past the window's end an open-loop client may run
// to serve arrivals scheduled inside it; whatever is still unserved then
// was never served, and counts as failed.
const overrun = 2 * time.Second

// heapSample is the heap's occupancy in blocks at one GC epoch.
type heapSample struct {
	at                         time.Duration // since the window opened
	inUse, los, free, recycled int32
}

// snapshot holds the runtime's cumulative accounting at one instant.
type snapshot struct {
	at       time.Time
	mutBusy  time.Duration
	gcWork   time.Duration
	concWork time.Duration
	counters map[string]int64
	loans    int64
	loanItem int64
	workers  []gcwork.WorkerStat
	work     counts
}

// run is one runtime instance with its clients, from construction to
// shutdown. A run measures one window.
type run struct {
	spec    *spec
	rt      *lxr.Runtime
	plan    *core.LXR
	tr      *trace.Tracer // nil unless traced
	clients []*client

	ready    sync.WaitGroup // clients warmed up, parked at gate
	gate     chan struct{}  // opens the window (or abandons the run)
	measured sync.WaitGroup // clients done measuring, parked at checkGate
	chkGate  chan struct{}  // lets clients verify their tables and leave
	done     sync.WaitGroup

	abandoned bool
	nWin      int   // sub-windows in the measurement window
	maxTxns   int64 // closed loop, tests only: stop each client after this many transactions
	start     time.Time
	end       time.Time
	interval  time.Duration // open loop: time between arrivals
	next      atomic.Int64  // open loop: next arrival index
	stop      atomic.Bool   // a client failed; everyone stops

	sampledEpoch atomic.Uint64
	nHeap        atomic.Int64
	heap         []heapSample

	setup time.Duration
}

// setUp constructs the runtime, starts the clients, and returns once
// every client has prefilled its table, warmed up and parked at the
// gate. The time it took is the workload's set-up time.
func setUp(s *spec, seed uint64, tr *trace.Tracer) (*run, error) {
	t0 := time.Now()
	rt, err := lxr.NewRuntimeChecked(lxr.RuntimeConfig{
		HeapBytes: s.heapBytes,
		GCThreads: gcThreads,
		LXR:       &core.Config{Tracer: tr},
	})
	if err != nil {
		return nil, err
	}
	rt.SetTracer(tr) // before the first mutator registers
	r := &run{
		spec: s, rt: rt, plan: rt.Plan.(*core.LXR), tr: tr,
		gate: make(chan struct{}), chkGate: make(chan struct{}),
		heap: make([]heapSample, 1<<16),
	}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, newClient(r, i, buildScript(s, seed, i)))
	}
	r.ready.Add(clients)
	r.measured.Add(clients)
	r.done.Add(clients)
	for _, c := range r.clients {
		go c.main()
	}
	r.ready.Wait()
	r.setup = time.Since(t0)
	for _, c := range r.clients {
		if c.failure != "" {
			r.abandon()
			return nil, fmt.Errorf("%s: set-up failed: %s", s.name, c.failure)
		}
	}
	return r, nil
}

// abandon releases a run that was set up only to time the set-up.
func (r *run) abandon() {
	r.abandoned = true
	close(r.gate)
	r.done.Wait()
	r.rt.Shutdown()
}

// main is a client's life: register, prefill, warm up, wait for the
// window, measure, verify, deregister.
func (c *client) main() {
	r := c.run
	defer r.done.Done()
	c.m = r.rt.RegisterMutator(numRoots)
	defer c.m.Deregister()

	c.guard(func() {
		c.prefill()
		e0 := r.rt.GCEpoch()
		for n := 0; n < c.spec.warmTxns || r.rt.GCEpoch()-e0 < warmEpochs; n++ {
			c.txn(false)
		}
	})
	c.park(r.ready.Done, r.gate)
	if r.abandoned {
		return
	}
	// The window starts at the top of the script whatever warm-up's
	// length was, so the same seed measures the same operations.
	c.cursor = 0
	c.seenEpoch = r.rt.GCEpoch()
	c.guard(c.measure)
	c.park(r.measured.Done, r.chkGate)
	c.check(0, len(c.ids))
}

// measure issues transactions for the length of the window and records
// each one's latency in its sub-window.
func (c *client) measure() {
	r := c.run
	if r.spec.open {
		c.measureOpen()
		return
	}
	for n := int64(0); !r.stop.Load(); n++ {
		t0 := time.Now()
		if !t0.Before(r.end) || (r.maxTxns > 0 && n == r.maxTxns) {
			return
		}
		timed := c.tm != nil && n%sampleEvery == 0
		c.txn(timed)
		t1 := time.Now()
		c.record(t0, t1.Sub(t0))
		if timed {
			c.tm.span(c.tm.nameReq, t0, t1)
		}
		c.boundary()
	}
}

// measureOpen serves the shared arrival schedule: arrival i is due at
// start + i×interval whatever the system is doing, and its latency runs
// from then — a pause charges every arrival scheduled behind it.
func (c *client) measureOpen() {
	r := c.run
	for n := 0; !r.stop.Load(); n++ {
		i := r.next.Add(1) - 1
		arrival := r.start.Add(time.Duration(i) * r.interval)
		if !arrival.Before(r.end) {
			return
		}
		timed := c.tm != nil && n%sampleEvery == 0
		t0 := time.Now()
		if t0.After(r.end.Add(overrun)) {
			// Fallen hopelessly behind: this arrival and every later
			// one in the window are never served.
			r.stop.Store(true)
			return
		}
		if arrival.After(t0) {
			c.due = arrival
			c.m.Blocked(c.await)
			woke := time.Now()
			c.lag = append(c.lag, int64(woke.Sub(arrival)))
			if timed {
				c.tm.span(c.tm.nameSleep, t0, woke)
			}
		}
		c.txn(timed)
		done := time.Now()
		c.record(arrival, done.Sub(arrival))
		if timed {
			c.tm.span(c.tm.nameReq, t0, done)
		}
		c.boundary()
	}
}

// record files a transaction's latency, and the bytes it allocated,
// under the sub-window it was due in.
func (c *client) record(due time.Time, lat time.Duration) {
	w := c.run.subWindowOf(due)
	c.lat[w] = append(c.lat[w], int64(lat))
	c.bytes[w] += c.count.bytes - c.bytesSeen
	c.bytesSeen = c.count.bytes
}

// subWindowOf is the index of the sub-window that t falls in; the last
// one also takes what runs past the window's end.
func (r *run) subWindowOf(t time.Time) int {
	return min(max(int(t.Sub(r.start)/subWindow), 0), r.nWin-1)
}

// sampleHeap records the heap's occupancy once per GC epoch.
func (r *run) sampleHeap(e uint64) {
	if r.sampledEpoch.Swap(e) == e {
		return
	}
	bt := r.plan.BlockTable()
	if i := r.nHeap.Add(1) - 1; int(i) < len(r.heap) {
		r.heap[i] = heapSample{
			at:       time.Since(r.start),
			inUse:    int32(bt.InUseBlocks()),
			los:      int32(bt.LOS().BlocksInUse()),
			free:     int32(bt.FreeBlocks()),
			recycled: int32(bt.RecycledBlocks()),
		}
	}
}

// snap reads the runtime's cumulative accounting. Clients must be
// parked at a gate: a park in flight is still counted as busy time by
// the VM, so the part of each client's park that has already elapsed is
// taken off here.
func (r *run) snap() snapshot {
	busy, gcWork, _, _ := r.rt.ConcSignals()
	now := time.Now()
	s := snapshot{
		at:       now,
		gcWork:   gcWork,
		concWork: r.rt.Stats.ConcurrentWork(),
		counters: r.rt.Stats.Counters(),
		workers:  r.plan.GCWorkerStats(),
	}
	s.loans, s.loanItem = r.plan.GCLoanStats()
	for _, c := range r.clients {
		busy -= now.Sub(c.parkedAt)
		s.work = s.work.add(c.count)
	}
	s.mutBusy = busy
	return s
}

// tick is the runtime's cumulative CPU accounting at a sub-window
// boundary.
type tick struct {
	mutBusy, gcWork time.Duration
}

// window is everything one measurement window produced.
type window struct {
	run           *run
	wall          time.Duration
	before, after snapshot
	ticks         []tick      // at each sub-window boundary, first and last included
	bytes         []int64     // allocated per sub-window
	pauses        []lxr.Pause // started inside the window
	heap          []heapSample
	lat           [][]int64 // merged over clients, per sub-window
	lag           []int64
	attempted     int64
	failed        int64
	failures      []string
}

// measure opens the window for the given length, waits for the clients,
// verifies their tables and shuts the runtime down.
func (r *run) measure(length time.Duration) *window {
	r.nWin = max(1, int(length/subWindow))
	nWin := r.nWin
	perWin := int(150e3 * subWindow.Seconds()) // room for 150k transactions/s per client
	for _, c := range r.clients {
		c.bytes = make([]int64, nWin)
		c.bytesSeen = c.count.bytes
		c.lat = make([][]int64, nWin)
		for i := range c.lat {
			c.lat[i] = make([]int64, 0, perWin)
		}
		if r.spec.open {
			c.lag = make([]int64, 0, int(r.spec.rate*length.Seconds()))
		}
		if r.tr != nil {
			c.tm = newCallTimes(r.tr, c.m.ID)
		}
	}
	if r.spec.open {
		r.interval = time.Duration(float64(time.Second) / r.spec.rate)
	}
	r.nHeap.Store(0)

	w := &window{run: r}
	w.before = r.snap()
	r.start = time.Now().Add(time.Millisecond)
	r.end = r.start.Add(length)
	close(r.gate)
	// The main goroutine sleeps through the window, waking at each
	// sub-window boundary to read the CPU accounting. A client asleep
	// between arrivals at that instant is counted busy for its sleep so
	// far, at most one arrival interval in two seconds.
	w.ticks = append(w.ticks, tick{w.before.mutBusy, w.before.gcWork})
	measured := make(chan struct{})
	go func() {
		r.measured.Wait()
		close(measured)
	}()
	for k := 1; k < nWin; k++ {
		select {
		case <-time.After(time.Until(r.start.Add(time.Duration(k) * subWindow))):
		case <-measured: // a transaction cap or a failure ended the window early
		}
		busy, gcWork, _, _ := r.rt.ConcSignals()
		w.ticks = append(w.ticks, tick{busy, gcWork})
	}
	<-measured
	w.after = r.snap()
	w.ticks = append(w.ticks, tick{w.after.mutBusy, w.after.gcWork})
	w.wall = w.after.at.Sub(r.start)
	close(r.chkGate)
	r.done.Wait()
	// Shut down before reading the pause records and the tracer, so the
	// concurrent thread's last quantum is accounted and the rings are
	// quiescent.
	r.rt.Shutdown()

	for _, p := range r.rt.Stats.Pauses() {
		if !p.Start.Before(r.start) && p.Start.Before(w.after.at) {
			w.pauses = append(w.pauses, p)
		}
	}
	w.heap = r.heap[:min(int(r.nHeap.Load()), len(r.heap))]
	w.lat = make([][]int64, nWin)
	w.bytes = make([]int64, nWin)
	served := w.after.work.sub(w.before.work).txns
	for _, c := range r.clients {
		for i := range c.lat {
			w.lat[i] = append(w.lat[i], c.lat[i]...)
			w.bytes[i] += c.bytes[i]
		}
		w.lag = append(w.lag, c.lag...)
		w.failed += c.count.checkFailures
		if c.failure != "" {
			w.failures = append(w.failures, c.failure)
		}
	}
	// Every arrival scheduled inside an open-loop window was attempted;
	// one that ran out of memory or was never served has failed. A
	// closed loop attempts what it issues, plus the transaction that
	// stopped a client, if any did.
	w.attempted = served
	if r.spec.open {
		w.attempted = int64((length + r.interval - 1) / r.interval)
	} else if r.stop.Load() {
		w.attempted += int64(len(w.failures))
	}
	w.failed += w.attempted - served
	return w
}

// blocksToBytes converts a block count to bytes.
func blocksToBytes(n int32) float64 { return float64(n) * mem.BlockSize }
