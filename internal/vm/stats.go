package vm

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/telemetry"
)

// Pause records one stop-the-world pause.
type Pause struct {
	// Kind names the pause type, e.g. "rc", "rc+satb", "young", "full".
	Kind string
	// Start is when collection work began (after the rendezvous).
	Start time.Time
	// Dur is how long the world stayed stopped.
	Dur time.Duration
	// TTSP is the time-to-safepoint: how long the rendezvous took
	// before collection work began.
	TTSP time.Duration
}

// CounterShards is how many independently updated cells back each named
// counter. Writers pick a cell by worker ID (Stats.AddAt), so parallel
// pause workers, the concurrent thread and the coordinator never
// contend on — or false-share — one cache line. Totals are merged at
// read time by summing the cells, which preserves the exact semantics
// of the previous single-cell implementation. Sized to cover the
// coordinator plus every worker of the largest GC pool a real host
// would configure (worker IDs beyond CounterShards-1 wrap and merely
// share cells — totals stay exact, only the no-contention property
// degrades).
const CounterShards = 64

// counterCells is the sharded backing store of one named counter: one
// cache-line-padded atomic cell per shard.
type counterCells struct {
	cells [CounterShards]paddedCell
}

// paddedCell pads each atomic counter out to its own cache line so
// per-worker increments on adjacent shards do not false-share.
type paddedCell struct {
	v atomic.Int64
	_ [7]uint64
}

func (c *counterCells) sum() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Stats accumulates runtime statistics for one VM run: pause records,
// collector/mutator time accounting, and named event counters.
//
// The named counters are sharded per GC worker (see CounterShards): the
// hot paths that increment them — decrement application, promotion,
// defensive filtering — run on parallel pause workers and on the
// concurrent thread, all of which would otherwise rendezvous on a
// single atomic cell. Writers with a stable worker ID use
// AddAt; everything else (coordinator code, tests) uses Add, which is
// shard 0. Readers (Counter, Counters) merge the shards.
type Stats struct {
	mu        sync.Mutex
	pauses    []Pause
	pauseHist map[string]*telemetry.Histogram // phase kind -> pause durations (ns)

	gcWorkNs      atomic.Int64 // total collector work (STW + concurrent), all threads
	concurrentNs  atomic.Int64 // concurrent-thread portion of gcWorkNs
	mutatorBusyNs atomic.Int64 // mutator busy time (excludes parked time)
	pauseNs       atomic.Int64 // summed pause durations (lock-free TotalPause)

	counters sync.Map // string -> *counterCells
}

// NewStats creates an empty Stats.
func NewStats() *Stats { return &Stats{} }

// RecordPause appends a pause record and attributes its duration to the
// phase kind's pause histogram ("young", "mixed", "rc+mark", ...), so
// tail pause percentiles stay queryable per phase at O(buckets) memory
// however long the run.
func (s *Stats) RecordPause(kind string, start time.Time, dur, ttsp time.Duration) {
	s.mu.Lock()
	s.pauses = append(s.pauses, Pause{Kind: kind, Start: start, Dur: dur, TTSP: ttsp})
	if s.pauseHist == nil {
		s.pauseHist = map[string]*telemetry.Histogram{}
	}
	h := s.pauseHist[kind]
	if h == nil {
		h = telemetry.NewHistogram(telemetry.PauseConfig())
		s.pauseHist[kind] = h
	}
	h.Record(int64(dur))
	s.mu.Unlock()
	s.pauseNs.Add(int64(dur))
}

// PauseHistograms returns an independent copy of the per-phase pause
// histograms, keyed by pause kind.
func (s *Stats) PauseHistograms() map[string]*telemetry.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*telemetry.Histogram, len(s.pauseHist))
	for k, h := range s.pauseHist {
		out[k] = h.Clone()
	}
	return out
}

// Pauses returns a copy of all recorded pauses.
func (s *Stats) Pauses() []Pause {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Pause, len(s.pauses))
	copy(out, s.pauses)
	return out
}

// PauseCount returns the number of pauses recorded so far.
func (s *Stats) PauseCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pauses)
}

// TotalPause returns the summed duration of all pauses. It is a single
// atomic load, so samplers can call it without contending on the pause
// records.
func (s *Stats) TotalPause() time.Duration {
	return time.Duration(s.pauseNs.Load())
}

// PausePercentiles returns the given pause-duration percentiles (0-100).
func (s *Stats) PausePercentiles(ps ...float64) []time.Duration {
	s.mu.Lock()
	durs := make([]time.Duration, len(s.pauses))
	for i, p := range s.pauses {
		durs[i] = p.Dur
	}
	s.mu.Unlock()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out := make([]time.Duration, len(ps))
	for i, pct := range ps {
		if len(durs) == 0 {
			continue
		}
		idx := int(float64(len(durs)-1) * pct / 100)
		out[i] = durs[idx]
	}
	return out
}

// AddGCWork accounts collector work time (across however many threads
// performed it). This feeds the "total cycles" LBO metric (Fig. 7b).
func (s *Stats) AddGCWork(d time.Duration) { s.gcWorkNs.Add(int64(d)) }

// AddConcurrentWork accounts concurrent collector-thread work. It is
// included in GCWork as well as reported separately.
func (s *Stats) AddConcurrentWork(d time.Duration) {
	s.concurrentNs.Add(int64(d))
	s.gcWorkNs.Add(int64(d))
}

// AddMutatorBusy accounts mutator busy time.
func (s *Stats) AddMutatorBusy(d time.Duration) { s.mutatorBusyNs.Add(int64(d)) }

// GCWork returns total collector work time.
func (s *Stats) GCWork() time.Duration { return time.Duration(s.gcWorkNs.Load()) }

// ConcurrentWork returns concurrent collector-thread work time.
func (s *Stats) ConcurrentWork() time.Duration { return time.Duration(s.concurrentNs.Load()) }

// MutatorBusy returns accumulated mutator busy time.
func (s *Stats) MutatorBusy() time.Duration { return time.Duration(s.mutatorBusyNs.Load()) }

// cellsFor resolves (creating on first use) the sharded cells of a
// named counter. The fast path is one lock-free sync.Map read.
func (s *Stats) cellsFor(name string) *counterCells {
	if c, ok := s.counters.Load(name); ok {
		return c.(*counterCells)
	}
	c, _ := s.counters.LoadOrStore(name, new(counterCells))
	return c.(*counterCells)
}

// Add increments a named counter (barrier slow paths, objects reclaimed
// by each mechanism, SATB traces started, ...) on shard 0. Code running
// on a GC worker with a stable ID should prefer AddAt.
func (s *Stats) Add(name string, delta int64) {
	s.cellsFor(name).cells[0].v.Add(delta)
}

// AddAt increments a named counter on the given shard. Callers pass a
// stable per-thread index — GC worker ID + 1, with 0 reserved for the
// coordinator and other unsharded threads — so concurrent writers land
// on distinct cache lines. Any shard value is accepted (it is reduced
// modulo CounterShards); totals are unaffected by the shard choice.
func (s *Stats) AddAt(shard int, name string, delta int64) {
	s.cellsFor(name).cells[uint(shard)%CounterShards].v.Add(delta)
}

// Counter returns the value of a named counter: the sum over all of its
// shards, exactly equal to the sum of all Add/AddAt deltas.
func (s *Stats) Counter(name string) int64 {
	if c, ok := s.counters.Load(name); ok {
		return c.(*counterCells).sum()
	}
	return 0
}

// Counters returns a snapshot of all named counters, each merged across
// its shards.
func (s *Stats) Counters() map[string]int64 {
	out := map[string]int64{}
	s.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*counterCells).sum()
		return true
	})
	return out
}

// CounterHandle is a pre-resolved reference to one named counter. Hot
// paths that increment the same counter once per object — decrement
// application, promotion — resolve the handle once and skip the name
// lookup on every event.
type CounterHandle struct {
	c *counterCells
}

// Handle resolves a named counter to a CounterHandle, creating the
// counter if needed.
func (s *Stats) Handle(name string) CounterHandle {
	return CounterHandle{c: s.cellsFor(name)}
}

// Add increments the counter on shard 0.
func (h CounterHandle) Add(delta int64) { h.c.cells[0].v.Add(delta) }

// AddAt increments the counter on the given shard (reduced modulo
// CounterShards); see Stats.AddAt for the shard convention.
func (h CounterHandle) AddAt(shard int, delta int64) {
	h.c.cells[uint(shard)%CounterShards].v.Add(delta)
}
