package harness

import (
	"encoding/json"
	"io"
	"time"

	"lxr/internal/telemetry"
)

// PhaseDigest summarises one phase-tagged distribution (pause durations
// of one pause kind, in ms).
type PhaseDigest struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p99.9"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

func msDigest(h *telemetry.Histogram) PhaseDigest {
	q := func(p float64) float64 { return float64(h.Percentile(p)) / float64(time.Millisecond) }
	return PhaseDigest{
		Count: h.Count(),
		P50:   q(50), P90: q(90), P99: q(99), P999: q(99.9),
		Max:  float64(h.Max()) / float64(time.Millisecond),
		Mean: h.Mean() / float64(time.Millisecond),
	}
}

// RunSummary is the machine-readable digest of one RunResult, emitted
// by cmd/lxr-bench -json so the perf trajectory can be tracked across
// PRs without parsing rendered tables.
type RunSummary struct {
	Experiment string `json:"experiment,omitempty"`
	Bench      string `json:"bench"`
	Collector  string `json:"collector"`
	HeapBytes  int    `json:"heap_bytes"`
	OK         bool   `json:"ok"`

	WallMS float64 `json:"wall_ms"`
	QPS    float64 `json:"qps,omitempty"`

	// Request latency percentiles in ms (request workloads only), from
	// the merged latency histogram, plus the total metered requests.
	LatencyMS map[string]float64 `json:"latency_ms,omitempty"`
	Requests  int64              `json:"requests,omitempty"`

	// GC pause percentiles/max in ms over all phases, and pause count.
	PauseMS    map[string]float64 `json:"pause_ms"`
	PauseCount int                `json:"pause_count"`

	// TTSPMS is the time-to-safepoint distribution in ms (how long each
	// stop-the-world rendezvous took to bring every mutator to rest),
	// computed exactly from the recorded pauses; omitted when a run had
	// no pauses.
	TTSPMS map[string]float64 `json:"ttsp_ms,omitempty"`

	// PausePhaseMS breaks the pause distribution down by phase kind
	// ("young", "mixed", "rc", "rc+mark", ...), the paper's per-phase
	// pause attribution.
	PausePhaseMS map[string]PhaseDigest `json:"pause_phase_ms,omitempty"`

	// MMU is the minimum-mutator-utilization curve over the standard
	// window grid, computed from the pause timeline.
	MMU []telemetry.MMUPoint `json:"mmu,omitempty"`

	TotalSTWMS float64 `json:"total_stw_ms"`
	GCWorkMS   float64 `json:"gc_work_ms"`
	ConcWorkMS float64 `json:"conc_work_ms"`

	// Scheduler utilization: how the gcwork pool's workers were used,
	// split by phase kind. worker_pause_items[i] / worker_loan_items[i]
	// count work items worker i processed inside stop-the-world phases
	// and on loan to the concurrent phases respectively; conc_loans and
	// conc_loan_items aggregate the between-pause lending activity, and
	// conc_workers records the configured borrow width.
	ConcWorkers      int     `json:"conc_workers,omitempty"`
	ConcLoans        int64   `json:"conc_loans,omitempty"`
	ConcLoanItems    int64   `json:"conc_loan_items,omitempty"`
	WorkerPauseItems []int64 `json:"worker_pause_items,omitempty"`
	WorkerLoanItems  []int64 `json:"worker_loan_items,omitempty"`

	// Intervals holds the periodic reporter's per-window pause/latency
	// digests (lxr-bench -interval). Absent otherwise.
	Intervals []IntervalReport `json:"intervals,omitempty"`
}

// Summary digests a RunResult.
func (r *RunResult) Summary() RunSummary {
	s := RunSummary{
		Bench:     r.Bench,
		Collector: r.Collector,
		HeapBytes: r.HeapBytes,
		OK:        r.OK,
	}
	if !r.OK {
		return s
	}
	s.WallMS = float64(r.Wall) / float64(time.Millisecond)
	s.QPS = r.QPS
	if r.Latency != nil && r.Latency.Count() > 0 {
		p50, p90, p99, p999, p9999 := latPercentiles(r.Latency)
		s.LatencyMS = map[string]float64{
			"p50": p50, "p90": p90, "p99": p99, "p99.9": p999, "p99.99": p9999,
		}
		s.Requests = r.Latency.Count()
	}
	s.PauseCount = len(r.Pauses)
	s.PauseMS = map[string]float64{
		"p50":    r.PausePercentile(50),
		"p95":    r.PausePercentile(95),
		"p99":    r.PausePercentile(99),
		"p99.9":  r.PausePercentile(99.9),
		"p99.99": r.PausePercentile(99.99),
		"max":    r.PausePercentile(100),
	}
	if len(r.Pauses) > 0 {
		s.TTSPMS = map[string]float64{
			"p50": r.TTSPPercentileMS(50),
			"p99": r.TTSPPercentileMS(99),
			"max": r.TTSPPercentileMS(100),
		}
	}
	if len(r.PauseHist) > 0 {
		s.PausePhaseMS = map[string]PhaseDigest{}
		for kind, h := range r.PauseHist {
			s.PausePhaseMS[kind] = msDigest(h)
		}
	}
	s.MMU = r.MMU
	s.TotalSTWMS = float64(r.TotalSTW()) / float64(time.Millisecond)
	s.GCWorkMS = float64(r.GCWork) / float64(time.Millisecond)
	s.ConcWorkMS = float64(r.ConcWork) / float64(time.Millisecond)
	s.ConcWorkers = r.ConcWorkers
	s.ConcLoans = r.Loans
	s.ConcLoanItems = r.LoanItems
	if len(r.WorkerStats) > 0 {
		s.WorkerPauseItems = make([]int64, len(r.WorkerStats))
		s.WorkerLoanItems = make([]int64, len(r.WorkerStats))
		for i, ws := range r.WorkerStats {
			s.WorkerPauseItems[i] = ws.PauseItems
			s.WorkerLoanItems[i] = ws.LoanItems
		}
	}
	s.Intervals = r.Intervals
	return s
}

// WriteJSON renders summaries as an indented JSON array.
func WriteJSON(w io.Writer, sums []RunSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sums)
}
