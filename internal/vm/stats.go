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

// Stats accumulates runtime statistics for one VM run: pause records,
// collector/mutator time accounting, and named event counters.
type Stats struct {
	mu        sync.Mutex
	pauses    []Pause
	pauseHist map[string]*telemetry.Histogram // phase kind -> pause durations (ns)

	gcWorkNs      atomic.Int64 // total collector work (STW + concurrent), all threads
	concurrentNs  atomic.Int64 // concurrent-thread portion of gcWorkNs
	mutatorBusyNs atomic.Int64 // mutator busy time (excludes parked time)
	pauseNs       atomic.Int64 // summed pause durations (lock-free TotalPause)

	counters sync.Map // string -> *atomic.Int64
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

// cell resolves (creating on first use) the cell of a named counter.
// The fast path is one lock-free sync.Map read.
func (s *Stats) cell(name string) *atomic.Int64 {
	if c, ok := s.counters.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := s.counters.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Add increments a named counter (barrier slow paths, objects reclaimed
// by each mechanism, SATB traces started, ...).
func (s *Stats) Add(name string, delta int64) { s.cell(name).Add(delta) }

// Counter returns the value of a named counter.
func (s *Stats) Counter(name string) int64 {
	if c, ok := s.counters.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Counters returns a snapshot of all named counters.
func (s *Stats) Counters() map[string]int64 {
	out := map[string]int64{}
	s.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// CounterHandle is a pre-resolved reference to one named counter. Hot
// paths that increment the same counter once per object — decrement
// application, promotion — resolve the handle once and skip the name
// lookup on every event.
type CounterHandle struct {
	c *atomic.Int64
}

// Handle resolves a named counter to a CounterHandle, creating the
// counter if needed.
func (s *Stats) Handle(name string) CounterHandle {
	return CounterHandle{c: s.cell(name)}
}

// Add increments the counter.
func (h CounterHandle) Add(delta int64) { h.c.Add(delta) }
