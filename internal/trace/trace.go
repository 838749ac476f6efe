// Package trace is the GC event tracer: a sharded, fixed-capacity,
// overwrite-oldest flight recorder for structured runtime events
// (pauses, rendezvous, collector phases, concurrent quanta, pacing
// triggers, sampled barrier activity) with a Chrome
// trace-event JSON exporter that opens directly in Perfetto.
//
// The design goals mirror internal/telemetry: the record path is
// 0-alloc, lock-free and constant-memory, so tracing can stay on for
// arbitrarily long runs; and a *Tracer that is nil records nothing, so
// every instrumentation site costs exactly one predictable branch when
// tracing is off (the fastbench family gates this).
//
// # Ring protocol
//
// Each shard is a power-of-two ring of cache-line-sized slots guarded
// by per-slot sequence numbers (a seqlock specialised for an
// overwrite-oldest ring). A writer claims a global ticket t with one
// atomic add, then publishes into slot t&mask:
//
//	want = 0 if t < cap else 2*(t-cap+1)   // previous lap fully published
//	spin until slot.seq == want            // only contended when lapped mid-write
//	slot.seq = 2*(t+1) - 1                 // odd: write in progress
//	slot.{t,dur,arg,arg2,meta} = event
//	slot.seq = 2*(t+1)                     // even: published
//
// Readers validate seq == 2*(t+1) before and after copying and discard
// torn slots, so draining is safe at any time; at quiescence every
// retained slot validates and the loss is exactly max(0, tickets−cap).
// Slot fields are individually atomic, which keeps concurrent
// drain-while-recording clean under the race detector; the stores cost
// nothing that matters on paths that already took a pause or a quantum.
package trace

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NameID is an interned event name. Built-in names have fixed IDs
// (usable from any package without a lookup); refined names discovered
// at run time — pause kinds, trigger kinds — are interned with
// Tracer.Intern.
type NameID uint16

// Built-in event names. The order must match builtinNames.
const (
	nameNone NameID = iota

	// Spans and instants on the rendezvous/concurrent side.
	NameRendezvous   // stop-request → world-stopped (dur = TTSP)
	NameQuantum      // one concurrent-controller work quantum
	NameLoan         // never emitted; named by the benchmark's ledger
	NameInterrupt    // never emitted; named by the benchmark's ledger
	NameBarrierSlow  // sampled write-barrier slow path (instant)
	NameAllocPublish // allocation-counter publish grain (instant)

	// LXR pause-pipeline phases.
	NameFlush      // per-mutator buffer flush
	NameDecs       // pending-decrement finish
	NameSATBSeed   // SATB seed + in-pause drain
	NameIncrements // modbuf increment drain
	NameResolve    // tracer pending-resolve
	NameRootDecs   // root decrement diff + resolve
	NameReclaim    // reclaimable release
	NameSweep      // young/large sweep
	NameSATBFinal  // SATB finalize
	NamePacer      // pacer epoch observation + cycle start
	NameDecSubmit  // decrement submission / in-pause processing

	// Baseline collector phases (G1, Shenandoah/ZGC, SemiSpace, Immix).
	NameFinalMark    // final mark: drain captures, finish tracer
	NameRoots        // root gather / scan
	NameEvac         // evacuation copy
	NameAudit        // post-evacuation audit
	NameFree         // region/space release
	NameMarkStart    // concurrent mark trigger
	NameInitMark     // Shen init-mark pause body
	NameConcMark     // Shen concurrent mark
	NameUpdateRefs   // Shen concurrent update-refs
	NameFinalUpdate  // Shen final-update pause body
	NameFlip         // semispace half flip
	NameCopy         // semispace copy closure
	NameClear        // Immix mark/line clear
	NameMark         // Immix STW mark
	NameSweepRebuild // Immix sweep-classify rebuild

	numBuiltin
)

var builtinNames = [numBuiltin]string{
	nameNone:         "",
	NameRendezvous:   "rendezvous",
	NameQuantum:      "quantum",
	NameLoan:         "loan",
	NameInterrupt:    "interrupt",
	NameBarrierSlow:  "barrier-slow",
	NameAllocPublish: "alloc-publish",
	NameFlush:        "flush",
	NameDecs:         "decs",
	NameSATBSeed:     "satb-seed",
	NameIncrements:   "increments",
	NameResolve:      "resolve",
	NameRootDecs:     "root-decs",
	NameReclaim:      "reclaim",
	NameSweep:        "sweep",
	NameSATBFinal:    "satb-final",
	NamePacer:        "pacer",
	NameDecSubmit:    "dec-submit",
	NameFinalMark:    "final-mark",
	NameRoots:        "roots",
	NameEvac:         "evac",
	NameAudit:        "audit",
	NameFree:         "free",
	NameMarkStart:    "mark-start",
	NameInitMark:     "init-mark",
	NameConcMark:     "conc-mark",
	NameUpdateRefs:   "update-refs",
	NameFinalUpdate:  "final-update",
	NameFlip:         "flip",
	NameCopy:         "copy",
	NameClear:        "clear",
	NameMark:         "mark",
	NameSweepRebuild: "sweep-rebuild",
}

// Event kinds.
const (
	KindSpan    = 1 // T..T+Dur
	KindInstant = 2 // point event at T, Dur = 0
)

// Shard layout. The STW path (rendezvous, pause, phase spans) is
// serialized under the VM's stop lock, so it owns one shard and its
// spans nest cleanly; the concurrent controller owns another (its
// quanta can *contain* pauses — Shenandoah runs whole cycles per
// quantum — so it must be a separate timeline); pacing triggers fire
// from both mutator polls and pauses and get their own; sampled
// mutator instants spread over MutShards lanes by mutator ID.
const (
	ShardGC     = 0
	ShardConc   = 1
	ShardPolicy = 2
	// MutShards is how many lanes carry sampled mutator instants.
	MutShards = 8
	// NumShards is the total shard count.
	NumShards = 3 + MutShards
)

// MutShard maps a mutator ID to its instant lane.
func MutShard(id uint64) int { return 3 + int(id%MutShards) }

// shardLabel names each shard's exported timeline.
func shardLabel(s int) string {
	switch s {
	case ShardGC:
		return "gc"
	case ShardConc:
		return "conctrl"
	case ShardPolicy:
		return "policy"
	}
	return "mut" + string(rune('0'+(s-3)))
}

// Event is one decoded trace event.
type Event struct {
	T    int64 // start, ns since Tracer.Epoch
	Dur  int64 // span duration in ns (0 for instants)
	Arg  uint64
	Arg2 uint64
	Name NameID
	Kind uint8 // KindSpan or KindInstant
}

// slot is one ring entry: a seqlock-guarded event sized to a cache
// line so neighbouring publishes never false-share.
type slot struct {
	seq  atomic.Uint64
	t    atomic.Int64
	dur  atomic.Int64
	arg  atomic.Uint64
	arg2 atomic.Uint64
	meta atomic.Uint64 // NameID | Kind<<16
}

// ring is one shard's fixed-capacity overwrite-oldest event buffer.
type ring struct {
	head atomic.Uint64 // next ticket
	_    [7]uint64     // keep the hot ticket off the slots' lines
	mask uint64
	slot []slot
}

// record claims a ticket and publishes ev. Lock-free except when a
// writer has been lapped mid-publish (requires capacity concurrent
// in-flight writes on one shard — vanishingly rare at real sizes).
func (r *ring) record(ev Event) {
	t := r.head.Add(1) - 1
	s := &r.slot[t&r.mask]
	var want uint64
	if n := uint64(len(r.slot)); t >= n {
		want = 2 * (t - n + 1)
	}
	for s.seq.Load() != want {
		// Lapped mid-write: yield until the straggler publishes.
		runtime.Gosched()
	}
	s.seq.Store(2*(t+1) - 1)
	s.t.Store(ev.T)
	s.dur.Store(ev.Dur)
	s.arg.Store(ev.Arg)
	s.arg2.Store(ev.Arg2)
	s.meta.Store(uint64(ev.Name) | uint64(ev.Kind)<<16)
	s.seq.Store(2 * (t + 1))
}

// drain copies out the retained events in ticket (record) order,
// discarding slots torn by concurrent writers. lost counts overwritten
// events; at quiescence it is exactly max(0, writes − capacity).
func (r *ring) drain() (events []Event, lost uint64) {
	h := r.head.Load()
	n := uint64(len(r.slot))
	start := uint64(0)
	if h > n {
		start = h - n
		lost = start
	}
	events = make([]Event, 0, h-start)
	for t := start; t < h; t++ {
		s := &r.slot[t&r.mask]
		want := 2 * (t + 1)
		if s.seq.Load() != want {
			continue
		}
		ev := Event{T: s.t.Load(), Dur: s.dur.Load(), Arg: s.arg.Load(), Arg2: s.arg2.Load()}
		m := s.meta.Load()
		ev.Name, ev.Kind = NameID(m&0xffff), uint8(m>>16)
		if s.seq.Load() != want {
			continue
		}
		events = append(events, ev)
	}
	return events, lost
}

// Config sizes a Tracer.
type Config struct {
	// ShardCap is the per-shard ring capacity in events, rounded up to
	// a power of two. 0 selects DefaultShardCap.
	ShardCap int
	// Flight marks the tracer as a flight recorder: rings are sized to
	// the trailing window the caller wants dumped on drift/failure
	// rather than the whole run. The ring machinery is identical; the
	// flag only changes how consumers label the output.
	Flight bool
}

// DefaultShardCap is the full-run per-shard ring capacity: 16Ki events
// x 64B slots = 1 MiB per shard, 11 MiB per tracer.
const DefaultShardCap = 1 << 14

// Tracer records structured GC events into per-shard rings. A nil
// *Tracer is valid and records nothing — instrumentation sites pay one
// nil check when tracing is off.
type Tracer struct {
	epoch  time.Time
	flight bool

	shards [NumShards]*ring

	mu    sync.RWMutex
	names []string          // NameID -> name
	ids   map[string]NameID // name -> NameID
}

// New creates a Tracer whose timestamps are relative to now.
func New(cfg Config) *Tracer {
	capPow2 := cfg.ShardCap
	if capPow2 <= 0 {
		capPow2 = DefaultShardCap
	}
	p := 1
	for p < capPow2 {
		p <<= 1
	}
	t := &Tracer{
		epoch:  time.Now(),
		flight: cfg.Flight,
		names:  append([]string(nil), builtinNames[:]...),
		ids:    make(map[string]NameID, numBuiltin),
	}
	for id, s := range builtinNames {
		if s != "" {
			t.ids[s] = NameID(id)
		}
	}
	for i := range t.shards {
		t.shards[i] = &ring{mask: uint64(p - 1), slot: make([]slot, p)}
	}
	return t
}

// Epoch is the wall-clock origin of event timestamps.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Flight reports whether the tracer was configured as a flight
// recorder.
func (t *Tracer) Flight() bool { return t != nil && t.flight }

// Intern resolves a name to its ID, registering it on first use.
// Intern takes a leaf read-lock (write-lock on first sight of a name)
// and a caller that builds the name allocates, so it is not a record
// path: resolve names once and record with the ID (see TriggerName).
func (t *Tracer) Intern(name string) NameID {
	if t == nil {
		return nameNone
	}
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id = NameID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// nameOf decodes an interned ID (empty for unknown).
func (t *Tracer) nameOf(id NameID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return ""
}

// Span records a completed span on a shard. start/dur come from the
// caller so refined names (the pause kind is only known once the pause
// body has run) can be attached when the span closes; the exporter
// re-expands each record into a begin/end pair.
func (t *Tracer) Span(shard int, name NameID, start time.Time, dur time.Duration, arg, arg2 uint64) {
	if t == nil {
		return
	}
	t.shards[shard].record(Event{
		T: start.Sub(t.epoch).Nanoseconds(), Dur: dur.Nanoseconds(),
		Arg: arg, Arg2: arg2, Name: name, Kind: KindSpan,
	})
}

// Phase records a completed collector phase on the GC shard, ending
// now. Phase spans are recorded inside a pause body, so they nest
// inside the enclosing pause span by construction.
func (t *Tracer) Phase(name NameID, start time.Time) {
	if t == nil {
		return
	}
	t.Span(ShardGC, name, start, time.Since(start), 0, 0)
}

// PhaseArg is Phase with a payload (items processed, bytes, ...).
func (t *Tracer) PhaseArg(name NameID, start time.Time, arg uint64) {
	if t == nil {
		return
	}
	t.Span(ShardGC, name, start, time.Since(start), arg, 0)
}

// Instant records a point event happening now.
func (t *Tracer) Instant(shard int, name NameID, arg, arg2 uint64) {
	if t == nil {
		return
	}
	t.shards[shard].record(Event{
		T:   time.Since(t.epoch).Nanoseconds(),
		Arg: arg, Arg2: arg2, Name: name, Kind: KindInstant,
	})
}

// TriggerName interns "trigger:<kind>", the name a pacing decision of
// that kind is recorded under. Collectors resolve their kinds once, at
// construction or Boot, so firing never touches the name table.
func (t *Tracer) TriggerName(kind string) NameID {
	return t.Intern("trigger:" + kind)
}

// Trigger records one fired pacing decision as an instant on the policy
// shard, with the signal and threshold float bits as payload. Like
// every record path it is wait-free and allocation-free: triggers fire
// on mutator safepoint paths and, for Shenandoah/ZGC, under the conctrl
// controller lock.
func (t *Tracer) Trigger(id NameID, signal, threshold float64) {
	t.Instant(ShardPolicy, id, math.Float64bits(signal), math.Float64bits(threshold))
}

// ShardDump is one shard's drained timeline.
type ShardDump struct {
	Shard  int
	Label  string
	Lost   uint64 // events overwritten (exact at quiescence)
	Events []Event
}

// Drain snapshots every shard's retained events in record order. Safe
// while writers are still recording (torn slots are discarded); exact
// once the run has quiesced.
func (t *Tracer) Drain() []ShardDump {
	if t == nil {
		return nil
	}
	out := make([]ShardDump, NumShards)
	for i, r := range t.shards {
		ev, lost := r.drain()
		out[i] = ShardDump{Shard: i, Label: shardLabel(i), Lost: lost, Events: ev}
	}
	return out
}
