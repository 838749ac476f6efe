package main

import (
	"runtime"

	"lxr/internal/mem"
	"lxr/internal/obj"
)

// The benchmark runs one client (mutator) and pins the Go scheduler to
// one processor (init below), with two GC threads behind it. The box it
// is sized for reports two vCPUs, but they deliver between one and two
// cores' worth depending on where the host puts them that minute: two
// busy threads each ran a fixed loop in 32 ms, or in 20 ms, where one
// alone took 17 ms (README.md, "Noise floor"). Anything that keeps two
// threads busy at once therefore measures the host's placement. On one
// processor the client, the concurrent collector thread and the pause's
// workers take turns, a pause never waits for an idle vCPU to be woken,
// and the second vCPU is left to the kernel and the benchmark's driver.
const (
	clients   = 1
	gcThreads = 2
)

// chainSegment is how many consecutive allocations are linked into one
// chain (each fresh object points at its predecessor). Cutting the chain
// keeps a survivor from dragging the whole allocation history along.
const chainSegment = 8

// chunkSlots is the fan-out of one table chunk: a medium object just
// under the large-object threshold, so the table itself stays out of
// the large object space.
const chunkSlots = 2040

// sizeClass is a payload-size range drawn with the given relative
// frequency; lo and hi are multiples of 8.
type sizeClass struct {
	weight int
	lo, hi int
}

// tableClass is a range of retained-table slots that receives the given
// share of survivors. Lifetimes differ between classes because slots are
// replaced uniformly within a class.
type tableClass struct {
	slots  int // per client
	weight int
}

// spec fixes a workload. Nothing here is calibrated at run time: two
// commits always face the same offered load in the same heap.
type spec struct {
	name string
	why  string

	// listed marks the workloads BENCHMARK.json names, the ones a later
	// change is held to: every end-to-end metric of theirs repeats within
	// its bound over ten runs on a shared host. The pauses of the other
	// two last 0.1-0.4 ms, start from cold caches and follow the host's
	// speed twice as closely as anything else measured here (README.md,
	// "Workloads not listed"); they run the same way by name.
	listed bool

	// open selects an open loop at rate transactions per second over
	// all clients; otherwise each client issues its next transaction
	// when the previous one completes.
	open bool
	rate float64

	heapBytes int

	// Per transaction: allocs allocations of refs reference slots each,
	// sized from sizes, of which survivePermille‰ replace a slot of
	// tables; then stores pointer stores between retained objects; then
	// reads payload reads along the newest chain.
	allocs          int
	refs            int
	sizes           []sizeClass
	survivePermille int
	tables          []tableClass
	stores          int
	reads           int

	// warmTxns is the closed-loop warm-up each client runs before the
	// measurement window opens (in addition to 20 GC epochs): enough
	// for the slowest table class to turn over once.
	warmTxns int

	sizeWeight, tableWeight int // sums, filled by init
}

func (s *spec) slots() int {
	n := 0
	for _, t := range s.tables {
		n += t.slots
	}
	return n
}

// meanObjectBytes is the expected allocated size of one scripted object.
func (s *spec) meanObjectBytes() float64 {
	sum := 0.0
	for _, c := range s.sizes {
		per := 0.0
		n := (c.hi-c.lo)/8 + 1
		for i := 0; i < n; i++ {
			per += float64(obj.SizeFor(s.refs, c.lo+8*i))
		}
		sum += float64(c.weight) * per / float64(n)
	}
	return sum / float64(s.sizeWeight)
}

// liveBytes is the script's known live set over all clients: every
// table slot holds one object, plus the table's own chunks and spine.
func (s *spec) liveBytes() int {
	chunks := (s.slots() + chunkSlots - 1) / chunkSlots
	table := chunks*obj.SizeFor(chunkSlots, 0) + obj.SizeFor(chunks, 0)
	return clients * (int(float64(s.slots())*s.meanObjectBytes()) + table)
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// small is 24–200 B of payload behind a 16 B header and the reference
// slots: objects that fit a 256 B line.
var small = []sizeClass{{weight: 1, lo: 8, hi: 184}}

var specs = []*spec{
	{
		name: "serve-young",
		why:  "open loop of short-lived small objects: bump allocation, young sweep and the rendezvous do the work; barrier slow path, decrements and LOS idle",
		open: true, rate: 12000,
		heapBytes: 16 * mb,
		allocs:    256, refs: 1, sizes: small,
		survivePermille: 1,
		tables:          []tableClass{{slots: 10000, weight: 1}},
		reads:           300,
		warmTxns:        10000,
	},
	{
		name: "batch-mutate", listed: true,
		why:       "closed loop that rewires mature objects into cycles: field-logging slow path, increments, lazy decrements and SATB do the work; allocation is minor",
		heapBytes: 16 * mb,
		allocs:    64, refs: 3, sizes: []sizeClass{{weight: 1, lo: 8, hi: 104}},
		survivePermille: 150,
		tables:          []tableClass{{slots: 16000, weight: 1}},
		stores:          192,
		warmTxns:        6000,
	},
	{
		name:      "batch-large",
		why:       "closed loop with over 60% of bytes in 18-34 KB objects plus medium ones: LOS allocation, clean-block acquisition, zeroing and LOS sweep instead of the bump fast path",
		heapBytes: 64 * mb,
		allocs:    8, refs: 1,
		sizes: []sizeClass{
			{weight: 2, lo: 18 * kb, hi: 34 * kb},
			{weight: 7, lo: mem.LineSize + 8, hi: 8 * kb},
			{weight: 3, lo: 8, hi: 184},
		},
		survivePermille: 10,
		tables:          []tableClass{{slots: 1024, weight: 1}},
		reads:           64,
		warmTxns:        3000,
	},
	{
		name: "serve-aging", listed: true,
		why:  "open loop, 10% survival, one long-lived survivor stranded per line among short-lived ones, tightest heap: mature reclamation, line recycling and fragmentation do the work",
		open: true, rate: 6000,
		heapBytes: 8 * mb,
		allocs:    160, refs: 1, sizes: []sizeClass{{weight: 1, lo: 40, hi: 104}},
		survivePermille: 100,
		tables:          []tableClass{{slots: 2000, weight: 3}, {slots: 12000, weight: 1}},
		reads:           100,
		warmTxns:        20000,
	},
}

func init() {
	runtime.GOMAXPROCS(1) // see clients above
	for _, s := range specs {
		for _, c := range s.sizes {
			s.sizeWeight += c.weight
		}
		for _, t := range s.tables {
			s.tableWeight += t.weight
		}
	}
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
