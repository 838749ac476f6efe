package harness_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"lxr"
	"lxr/internal/core"
	"lxr/internal/harness"
	"lxr/internal/workload"
)

func quickOpts(buf *bytes.Buffer) harness.Options {
	return harness.Options{
		Scale:     workload.QuickScale(),
		GCThreads: 2,
		Out:       buf,
	}
}

func TestRunOneBatch(t *testing.T) {
	spec, ok := workload.ByName("fop")
	if !ok {
		t.Fatal("missing spec")
	}
	for _, c := range []string{harness.CLXR, harness.CG1, harness.CSerial} {
		r := harness.RunOne(spec, c, 2, 0, quickOpts(&bytes.Buffer{}))
		if !r.OK {
			t.Fatalf("%s did not run", c)
		}
		if r.Wall <= 0 {
			t.Fatalf("%s: no wall time", c)
		}
	}
}

func TestRunOneRequests(t *testing.T) {
	spec, _ := workload.ByName("lusearch")
	opts := quickOpts(&bytes.Buffer{})
	rate := harness.CalibrateRate(spec, opts)
	if rate <= 0 {
		t.Fatal("calibration failed")
	}
	r := harness.RunOne(spec, harness.CLXR, 2, rate, opts)
	if !r.OK || r.Latency == nil || r.Latency.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	if r.Latency.Count() != int64(opts.Scale.Size(spec).Requests) {
		t.Fatalf("latency histogram holds %d samples, want %d requests",
			r.Latency.Count(), opts.Scale.Size(spec).Requests)
	}
	if r.PausePercentile(50) < 0 {
		t.Fatal("bad pause percentile")
	}
	if p50, p999 := r.LatencyPercentileMS(50), r.LatencyPercentileMS(99.9); p50 <= 0 || p999 < p50 {
		t.Fatalf("bad latency percentiles: p50 %v p99.9 %v", p50, p999)
	}
	// Pause attribution: every pause must land in a phase histogram,
	// and the merged histogram must agree with the pause records.
	var phaseTotal int64
	for _, h := range r.PauseHist {
		phaseTotal += h.Count()
	}
	if phaseTotal != int64(len(r.Pauses)) {
		t.Fatalf("phase histograms hold %d pauses, records hold %d", phaseTotal, len(r.Pauses))
	}
	// MMU: full curve with utilizations in [0,1].
	if len(r.MMU) == 0 {
		t.Fatal("no MMU curve")
	}
	for _, pt := range r.MMU {
		if pt.Utilization < 0 || pt.Utilization > 1 {
			t.Fatalf("MMU out of range: %+v", pt)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := harness.RunTable1(quickOpts(&buf))
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	out := buf.String()
	for _, want := range []string{"G1", "Shenandoah", "LXR", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Shape check: LXR should not be drastically slower than G1.
	g1, lxr := rows[0], rows[2]
	if g1.OK && lxr.OK && lxr.Wall.Seconds() > 3*g1.Wall.Seconds() {
		t.Errorf("LXR %.2fs vs G1 %.2fs: unexpectedly slow", lxr.Wall.Seconds(), g1.Wall.Seconds())
	}
}

func TestNewPlanZGCUnavailableSmallHeap(t *testing.T) {
	_, err := lxr.NewPlan(lxr.CollectorZGC, core.Config{HeapBytes: 8 << 20, GCThreads: 2})
	if !errors.Is(err, lxr.ErrMinHeap) {
		t.Fatalf("ZGC should be unavailable at 8 MB, got %v", err)
	}
}

func TestRecordHookAndSummaryJSON(t *testing.T) {
	spec, _ := workload.ByName("fop")
	opts := quickOpts(&bytes.Buffer{})
	var recorded []*harness.RunResult
	opts.Record = func(r *harness.RunResult) { recorded = append(recorded, r) }
	r := harness.RunOne(spec, harness.CLXR, 2, 0, opts)
	if len(recorded) != 1 || recorded[0] != r {
		t.Fatalf("Record hook saw %d results", len(recorded))
	}
	s := r.Summary()
	if !s.OK || s.Bench != "fop" || s.Collector != harness.CLXR {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.WallMS <= 0 || s.PauseCount == 0 || s.PauseMS["max"] <= 0 {
		t.Fatalf("summary missing metrics: %+v", s)
	}
	if len(s.PausePhaseMS) == 0 {
		t.Fatalf("summary missing per-phase pause digests: %+v", s)
	}
	var phases int64
	for _, d := range s.PausePhaseMS {
		phases += d.Count
	}
	if phases != int64(s.PauseCount) {
		t.Fatalf("phase digests cover %d pauses of %d", phases, s.PauseCount)
	}
	if len(s.MMU) == 0 {
		t.Fatalf("summary missing MMU curve")
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, []harness.RunSummary{s}); err != nil {
		t.Fatal(err)
	}
	// The cumulative per-worker counts are reported; the per-pause
	// per-phase digest of them is not.
	if out := buf.String(); !strings.Contains(out, `"worker_pause_items"`) || strings.Contains(out, "worker_pause_items_by_phase") {
		t.Fatalf("worker item keys: want worker_pause_items and no worker_pause_items_by_phase:\n%s", out)
	}
	var back []harness.RunSummary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(back) != 1 || back[0].Bench != "fop" {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
}

// TestRunOneIntervals: with Interval set, a request run must archive at
// least one interval report, and the windows must partition the run.
func TestRunOneIntervals(t *testing.T) {
	spec, _ := workload.ByName("lusearch")
	opts := quickOpts(&bytes.Buffer{})
	opts.Interval = 10 * time.Millisecond
	rate := harness.CalibrateRate(spec, opts)
	r := harness.RunOne(spec, harness.CLXR, 2, rate, opts)
	if !r.OK {
		t.Fatal("interval run failed")
	}
	if len(r.Intervals) == 0 {
		t.Fatal("no interval reports")
	}
	var pauses, requests int64
	for i, w := range r.Intervals {
		if w.Index != i {
			t.Fatalf("interval %d has index %d", i, w.Index)
		}
		if i > 0 && w.StartMS != r.Intervals[i-1].EndMS {
			t.Fatalf("interval %d does not start where %d ended", i, i-1)
		}
		pauses += w.Pauses
		requests += w.Requests
	}
	// The windows partition the run: summed window counts can not
	// exceed the whole-run totals (the reporter stops after the
	// workload, so they match exactly for requests).
	if requests != r.Latency.Count() {
		t.Fatalf("interval requests sum %d, whole-run %d", requests, r.Latency.Count())
	}
	if pauses > int64(len(r.Pauses)) {
		t.Fatalf("interval pauses sum %d exceeds whole-run %d", pauses, len(r.Pauses))
	}
	// The intervals ride into the JSON summary.
	s := r.Summary()
	if len(s.Intervals) != len(r.Intervals) {
		t.Fatal("summary dropped intervals")
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "intervals") {
		t.Fatal("summary JSON missing the intervals key")
	}
}

// TestDriftTrackerFlagsDepartures: windows whose p99 departs more than
// 2x from the trailing mean are flagged, in either direction, and the
// first window never is.
func TestDriftTrackerFlagsDepartures(t *testing.T) {
	var d harness.DriftTrackerForTest
	seq := []struct {
		v    float64
		want bool
	}{
		{10, false}, // no baseline yet
		{11, false},
		{12, false}, // trailing mean ~10.5
		{30, true},  // > 2x mean
		{12, false}, // mean now dragged up by the spike, 12 is within 2x
		{4, true},   // < half the (spiked) mean
		{11, false},
	}
	for i, s := range seq {
		if got := d.Observe(s.v); got != s.want {
			t.Fatalf("window %d (p99=%v): drift=%v, want %v", i, s.v, got, s.want)
		}
	}
}
