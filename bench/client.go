package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lxr"
	"lxr/internal/gcwork"
	"lxr/internal/obj"
)

// Root slots of a client's mutator. Every reference the client holds
// across an allocation (a safepoint) lives here, because survivors move.
const (
	rootSpine = iota // the retained table: spine -> chunks -> objects
	rootPrev         // the newest allocation, head of the current chain
	numRoots
)

// Application type ids, for readability of heap dumps only.
const (
	typeObject = 1
	typeChunk  = 2
	typeSpine  = 3
)

// sampleEvery is the share of transactions a traced run times call by
// call and records as spans: few enough that timing them costs well
// under 1 % of the run.
const sampleEvery = 64

// checkEvery and checkSlice bound the mid-run heap check: every 64th GC
// epoch a client verifies its next 4096 table slots. A full walk would
// stall an open-loop client for milliseconds and show up as latency;
// the whole table is verified once the window has closed.
const (
	checkEvery = 64
	checkSlice = 4096
)

// client is one mutator driven by its cyclic script, with a shadow model
// of everything it retains in the heap.
type client struct {
	idx  int
	spec *spec
	sc   *script
	run  *run
	m    *lxr.Mutator

	cursor int    // next scripted transaction
	nextID uint64 // id of the newest object; payload word 0 of every object

	// Shadow model: the id of each table slot's occupant and, for
	// workloads that rewire, the id each of its fields points at (0 is
	// nil). The heap must agree with it at every check.
	ids   []uint64
	links []uint64

	// await spins until c.due with the running token released (see
	// awaitDue). It is a field so that an open-loop client allocates no
	// closure per arrival.
	due   time.Time
	await func()

	seenEpoch   uint64
	checkCursor int
	parkedAt    time.Time // when the client last entered a gate

	// Work counted over the client's whole life; the run differences
	// snapshots of these around the measurement window.
	count counts

	// Window results.
	lat       [][]int64 // transaction latency (ns) per sub-window
	bytes     []int64   // bytes allocated per sub-window
	bytesSeen int64     // count.bytes at the last record
	lag       []int64   // open loop: wake-up after the scheduled arrival (ns)
	failure   string    // first failure that stopped this client

	sink uint64     // keeps the compute phase's result alive
	tm   *callTimes // traced run only
}

// counts is the work a client has issued.
type counts struct {
	txns, objects, bytes, losBytes, stores, checkFailures int64
}

func (a counts) sub(b counts) counts {
	return counts{a.txns - b.txns, a.objects - b.objects, a.bytes - b.bytes,
		a.losBytes - b.losBytes, a.stores - b.stores, a.checkFailures - b.checkFailures}
}

func (a counts) add(b counts) counts {
	return counts{a.txns + b.txns, a.objects + b.objects, a.bytes + b.bytes,
		a.losBytes + b.losBytes, a.stores + b.stores, a.checkFailures + b.checkFailures}
}

func newClient(r *run, idx int, sc *script) *client {
	s := r.spec
	c := &client{
		idx: idx, spec: s, sc: sc, run: r,
		nextID: uint64(idx+1) << 48,
		ids:    make([]uint64, s.slots()),
		links:  make([]uint64, s.slots()*(s.refs-1)),
	}
	c.await = c.awaitDue
	return c
}

// awaitDue busy-waits for the client's next arrival, yielding the
// processor on every turn. An open-loop client that sleeps between
// arrivals measures the host more than the collector: Go's timers round
// a wait under 1 ms up to 1 ms when the process is otherwise idle
// (Mutator.BlockedSleep woke clients 0.96 ms late at the median),
// nanosleep(2) with the timer slack at its minimum still leaves the vCPU
// to be descheduled by the host, and on the box this was built on that
// made req_p50_ms spread by 82 % over eight seeds, against 26 % for the
// same seeds spinning. The client is parked as far as the collector is
// concerned (the token is released, the time is not busy time); the
// operating system sees a runnable thread, which is what keeps the core
// awake. The yield is what lets the concurrent collector thread and a
// pause's workers run on the one processor the benchmark uses: without
// it they would wait for the Go scheduler to preempt the spin, 10 ms
// later.
func (c *client) awaitDue() {
	for time.Now().Before(c.due) {
		runtime.Gosched()
	}
}

// guard runs f and turns a collector out-of-memory panic into a
// recorded failure that stops the run, the way a server would shed the
// request and report it. OOM raised on a GC worker arrives wrapped in
// *gcwork.WorkerPanic; by then the pause has restarted the world. Any
// other panic is a bug and propagates.
func (c *client) guard(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if wp, isWP := r.(*gcwork.WorkerPanic); isWP {
				r = wp.Value
			}
			if s, isStr := r.(string); isStr && strings.Contains(s, "out of memory") {
				c.failure = s
				c.run.stop.Store(true)
				return
			}
			panic(r)
		}
	}()
	f()
}

// slot loads the occupant of a table slot.
func (c *client) slot(slot uint32) lxr.Ref {
	chunk := c.m.Load(c.m.Roots[rootSpine], int(slot/chunkSlots))
	return c.m.Load(chunk, int(slot%chunkSlots))
}

// store is Mutator.Store, counted, and timed in sampled transactions.
func (c *client) store(src lxr.Ref, i int, val lxr.Ref, timed bool) {
	c.count.stores++
	if !timed {
		c.m.Store(src, i, val)
		return
	}
	t0 := c.tm.now()
	c.m.Store(src, i, val)
	c.tm.store = append(c.tm.store, c.tm.since(t0))
}

// alloc allocates one scripted object and stamps its id.
func (c *client) alloc(payload uint32, timed bool) lxr.Ref {
	var o lxr.Ref
	size := obj.SizeFor(c.spec.refs, int(payload))
	large := size > obj.LargeThreshold
	if timed {
		t0 := c.tm.now()
		o = c.m.Alloc(typeObject, c.spec.refs, int(payload))
		c.tm.recordAlloc(c.tm.since(t0), large)
	} else {
		o = c.m.Alloc(typeObject, c.spec.refs, int(payload))
	}
	c.nextID++
	c.m.WritePayload(o, 0, c.nextID)
	c.count.objects++
	c.count.bytes += int64(size)
	if large {
		c.count.losBytes += int64(size)
	}
	return o
}

// retain stores o into a table slot, which kills the previous occupant
// unless a rewired field elsewhere still points at it.
func (c *client) retain(o lxr.Ref, slot uint32, timed bool) {
	chunk := c.m.Load(c.m.Roots[rootSpine], int(slot/chunkSlots))
	c.store(chunk, int(slot%chunkSlots), o, timed)
	c.ids[slot] = c.nextID
	f := c.spec.refs - 1
	clear(c.links[int(slot)*f:][:f])
}

// prefill builds the table and fills every slot, so the live set is at
// its steady-state size before the first scripted transaction.
func (c *client) prefill() {
	m, s := c.m, c.spec
	chunks := (s.slots() + chunkSlots - 1) / chunkSlots
	m.Roots[rootSpine] = m.Alloc(typeSpine, chunks, 0)
	for i := 0; i < chunks; i++ {
		ch := m.Alloc(typeChunk, chunkSlots, 0)
		m.Store(m.Roots[rootSpine], i, ch)
	}
	for k, slot := range s.prefillOrder() {
		c.retain(c.alloc(c.sc.prefill[k], false), slot, false)
	}
}

// txn runs the next scripted transaction: allocations (chained, some
// retained), pointer stores between retained objects, then payload
// reads along the newest chain. timed selects a traced run's sampled
// transaction: each Alloc and Store call is timed and each phase is
// recorded as a span.
func (c *client) txn(timed bool) {
	m, s := c.m, c.spec
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}

	allocs := c.sc.allocs[c.cursor*s.allocs:][:s.allocs]
	for i := range allocs {
		a := &allocs[i]
		o := c.alloc(a.payload, timed)
		if a.flags&flagLink != 0 && a.flags&flagSurvive == 0 {
			// A store into a fresh object: the barrier's fast path.
			c.store(o, 0, m.Roots[rootPrev], timed)
		}
		m.Roots[rootPrev] = o
		if a.flags&flagSurvive != 0 {
			// Survivors are not chained, or each would keep its whole
			// segment alive and multiply the scripted survival rate.
			c.retain(o, a.slot, timed)
		}
	}
	if timed {
		t0 = c.tm.phase(c.tm.nameAlloc, t0)
	}

	if s.stores > 0 {
		f := s.refs - 1
		stores := c.sc.stores[c.cursor*s.stores:][:s.stores]
		for i := range stores {
			st := &stores[i]
			// Stores into mature objects: the field-logging slow path on
			// the first store to a field in an epoch. Random rewiring
			// builds cycles and pushes in-degrees past the 2-bit count.
			c.store(c.slot(st.src), 1+int(st.field), c.slot(st.dst), timed)
			c.links[int(st.src)*f+int(st.field)] = c.ids[st.dst]
		}
		if timed {
			t0 = c.tm.phase(c.tm.nameStore, t0)
		}
	}

	cur := m.Roots[rootPrev]
	var sum uint64
	for i := 0; i < s.reads; i++ {
		id := m.ReadPayload(cur, 0)
		if id == 0 {
			c.count.checkFailures++ // a reachable object lost its id
		}
		sum += id
		if i%8 == 7 {
			if cur = m.Load(cur, 0); cur.IsNil() {
				cur = m.Roots[rootPrev]
			}
		}
	}
	c.sink += sum
	if timed && s.reads > 0 {
		c.tm.phase(c.tm.nameCompute, t0)
	}

	c.count.txns++
	if c.cursor++; c.cursor == scriptTxns {
		c.cursor = 0
	}
}

// boundary runs between transactions. The first client to see a new GC
// epoch samples the heap's occupancy (the footprint right after a
// pause, before lazy decrements return anything), and every checkEvery
// epochs a client verifies a slice of its table.
func (c *client) boundary() {
	e := c.run.rt.GCEpoch()
	if e == c.seenEpoch {
		return
	}
	c.seenEpoch = e
	c.run.sampleHeap(e)
	if e%checkEvery == 0 {
		hi := min(c.checkCursor+checkSlice, len(c.ids))
		c.check(c.checkCursor, hi)
		if c.checkCursor = hi; hi == len(c.ids) {
			c.checkCursor = 0
		}
	}
}

// check compares table slots [lo, hi) with the shadow model: the
// occupant carries the recorded id, and each rewired field points at an
// object carrying the id recorded for it (which may have left the table
// since and be alive through that field alone). A corrupt reference may
// fault inside the arena; that is a failure too, not a crash.
func (c *client) check(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			c.count.checkFailures++
			if c.failure == "" {
				c.failure = fmt.Sprint("heap check: ", r)
			}
		}
	}()
	m := c.m
	f := c.spec.refs - 1
	bad := func(slot int, what string, got, want uint64) {
		c.count.checkFailures++
		if c.failure == "" {
			c.failure = fmt.Sprintf("heap check: client %d slot %d %s: got id %#x, want %#x", c.idx, slot, what, got, want)
		}
	}
	for slot := lo; slot < hi; slot++ {
		o := c.slot(uint32(slot))
		want := c.ids[slot]
		if o.IsNil() {
			if want != 0 {
				bad(slot, "is empty", 0, want)
			}
			continue
		}
		if got := m.ReadPayload(o, 0); got != want {
			bad(slot, "occupant", got, want)
			continue
		}
		for k := 0; k < f; k++ {
			want := c.links[slot*f+k]
			t := m.Load(o, 1+k)
			var got uint64
			if !t.IsNil() {
				got = m.ReadPayload(t, 0)
			}
			if got != want {
				bad(slot, fmt.Sprint("field ", 1+k), got, want)
			}
		}
	}
}

// park waits at a gate with the running token released, so collections
// proceed while the client is idle.
func (c *client) park(arrived func(), gate <-chan struct{}) {
	c.parkedAt = time.Now()
	c.m.Blocked(func() {
		arrived()
		<-gate
	})
}
