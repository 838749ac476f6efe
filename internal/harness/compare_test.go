package harness

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"lxr/internal/fastbench"
	"lxr/internal/telemetry"
)

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func compareData(t *testing.T, oldData, newData []byte) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	var c Compare
	n, err := c.Data(&buf, oldData, newData)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return n, buf.String()
}

func fpResult(collector, bench string, samples ...float64) fastbench.Result {
	r := fastbench.Result{Collector: collector, Bench: bench, Ops: 1000, SamplesNS: samples}
	r.MinNS, r.MaxNS = samples[0], samples[0]
	var sum float64
	for _, s := range samples {
		if s < r.MinNS {
			r.MinNS = s
		}
		if s > r.MaxNS {
			r.MaxNS = s
		}
		sum += s
	}
	r.MeanNS = sum / float64(len(samples))
	return r
}

func fpReport(scale float64) fastbench.Report {
	return fastbench.Report{Kind: "fastpath", Results: []fastbench.Result{
		fpResult("LXR", "alloc/small", 70*scale, 74*scale, 78*scale),
		fpResult("LXR", "store/fast", 12*scale, 13*scale, 13.5*scale),
		fpResult("Immix", "alloc/small", 30*scale, 31*scale, 33*scale),
	}}
}

// An A/A self-comparison of a fastpath report must be clean: the
// acceptance gate for the noise-aware differ.
func TestCompareFastpathSelfIsClean(t *testing.T) {
	data := mustJSON(t, fpReport(1))
	n, out := compareData(t, data, data)
	if n != 0 {
		t.Fatalf("A/A comparison found %d regressions:\n%s", n, out)
	}
	if !strings.Contains(out, "fastpath: 0 regression(s)") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

// A 2x slowdown on one benchmark must be flagged, and only that one.
func TestCompareFastpathFlagsInjectedSlowdown(t *testing.T) {
	oldRep := fpReport(1)
	newRep := fpReport(1)
	slow := fpResult("LXR", "store/fast", 24, 26, 27)
	newRep.Results[1] = slow
	n, out := compareData(t, mustJSON(t, oldRep), mustJSON(t, newRep))
	if n != 1 {
		t.Fatalf("want exactly 1 regression, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "LXR store/fast") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression not attributed to LXR store/fast:\n%s", out)
	}
}

// Overlapping intervals — noise, not signal — must not be flagged even
// when the means differ.
func TestCompareFastpathToleratesOverlap(t *testing.T) {
	oldRep := fastbench.Report{Kind: "fastpath", Results: []fastbench.Result{
		fpResult("LXR", "alloc/small", 70, 74, 90),
	}}
	newRep := fastbench.Report{Kind: "fastpath", Results: []fastbench.Result{
		fpResult("LXR", "alloc/small", 85, 95, 110), // min 85 < old max 90·1.1
	}}
	n, out := compareData(t, mustJSON(t, oldRep), mustJSON(t, newRep))
	if n != 0 {
		t.Fatalf("overlapping intervals flagged as regression:\n%s", out)
	}
}

func histDump(t *testing.T, scale int64) HistDump {
	t.Helper()
	h := telemetry.NewHistogram(telemetry.PauseConfig())
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		h.Record(scale * (100_000 + r.Int63n(4_000_000))) // 0.1–4.1 ms pauses
	}
	e := h.Export()
	return HistDump{Bench: "lusearch", Collector: "LXR",
		Pauses: map[string]telemetry.Export{"rc": e}, Latency: &e}
}

func TestCompareHistSelfAndSlowdown(t *testing.T) {
	oldData := mustJSON(t, []HistDump{histDump(t, 1)})
	if n, out := compareData(t, oldData, oldData); n != 0 {
		t.Fatalf("A/A hist comparison found %d regressions:\n%s", n, out)
	}
	// 4x slower pauses: well past the 2x ratio and the 1 ms floor at p99.
	newData := mustJSON(t, []HistDump{histDump(t, 4)})
	n, out := compareData(t, oldData, newData)
	if n == 0 {
		t.Fatalf("4x pause slowdown not flagged:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("missing REGRESSION line:\n%s", out)
	}
}

// exportQuantile must agree with the histogram's own Percentile — the
// compare tool recomputes quantiles from the sparse dump.
func TestExportQuantileMatchesHistogram(t *testing.T) {
	h := telemetry.NewHistogram(telemetry.PauseConfig())
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		h.Record(50_000 + r.Int63n(20_000_000))
	}
	e := h.Export()
	for _, q := range quantiles {
		want := float64(h.Percentile(q.p))
		if got := exportQuantile(&e, q.p); got != want {
			t.Fatalf("%s: exportQuantile %.0f, Percentile %.0f", q.name, got, want)
		}
	}
}

func TestCompareSummaries(t *testing.T) {
	base := RunSummary{Bench: "lusearch", Collector: "LXR", OK: true,
		PauseMS:   map[string]float64{"p99": 2.0, "max": 3.5},
		LatencyMS: map[string]float64{"p99": 4.0, "p99.9": 9.0}}
	oldData := mustJSON(t, []RunSummary{base})
	if n, out := compareData(t, oldData, oldData); n != 0 {
		t.Fatalf("A/A summary comparison found %d regressions:\n%s", n, out)
	}
	// A baseline cached by an older build carries keys this one no
	// longer writes (the governor and pacing records); it must still
	// compare.
	legacy := bytes.Replace(oldData, []byte(`{`),
		[]byte(`{"governor":{"final_width":2},"pacing":{"collector":"LXR","mode":"static","fired":1,"decisions":[]},`), 1)
	if n, out := compareData(t, legacy, oldData); n != 0 || !strings.Contains(out, "1 run(s) compared") {
		t.Fatalf("baseline with retired keys: %d regressions:\n%s", n, out)
	}
	slow := base
	slow.PauseMS = map[string]float64{"p99": 6.0, "max": 3.6}
	n, out := compareData(t, oldData, mustJSON(t, []RunSummary{slow}))
	if n != 1 {
		t.Fatalf("want 1 regression (pause p99 tripled), got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "pause p99 REGRESSION") {
		t.Fatalf("missing pause p99 regression:\n%s", out)
	}
}

// Per-phase pause digests are gated individually: a doubled phase p99
// must flag even when the total pause distribution is unchanged, phases
// inside the 1 ms floor must not, and phases present on only one side
// (population shifts like rc vs rc+mark) compare trivially.
func TestCompareSummariesPausePhases(t *testing.T) {
	base := RunSummary{Bench: "lusearch", Collector: "LXR", OK: true,
		PauseMS: map[string]float64{"p99": 2.0, "max": 3.5},
		PausePhaseMS: map[string]PhaseDigest{
			"rc":      {Count: 40, P50: 1.0, P99: 2.0, Max: 2.2},
			"rc+mark": {Count: 4, P50: 2.0, P99: 3.5, Max: 3.5},
		}}
	oldData := mustJSON(t, []RunSummary{base})
	if n, out := compareData(t, oldData, oldData); n != 0 {
		t.Fatalf("A/A phase comparison found %d regressions:\n%s", n, out)
	}

	slow := base
	slow.PausePhaseMS = map[string]PhaseDigest{
		"rc":      {Count: 40, P50: 2.5, P99: 5.5, Max: 6.0}, // >2x and >1ms: flags
		"rc+mark": {Count: 4, P50: 2.0, P99: 3.6, Max: 3.6},  // within noise
	}
	n, out := compareData(t, oldData, mustJSON(t, []RunSummary{slow}))
	if n != 1 || !strings.Contains(out, "phase[rc] p99 REGRESSION") {
		t.Fatalf("doubled rc-phase p99 not flagged as exactly 1 regression (%d):\n%s", n, out)
	}

	// Sub-millisecond phases stay under the floor even at large ratios.
	tiny := base
	tiny.PausePhaseMS = map[string]PhaseDigest{"rc": {Count: 40, P99: 0.1}}
	tinySlow := base
	tinySlow.PausePhaseMS = map[string]PhaseDigest{"rc": {Count: 40, P99: 0.9}}
	if n, out := compareData(t, mustJSON(t, []RunSummary{tiny}), mustJSON(t, []RunSummary{tinySlow})); n != 0 {
		t.Fatalf("sub-floor phase movement flagged (%d):\n%s", n, out)
	}

	// A phase kind appearing only in the new run has no baseline: skip.
	shifted := base
	shifted.PausePhaseMS = map[string]PhaseDigest{
		"rc":     {Count: 40, P50: 1.0, P99: 2.0, Max: 2.2},
		"rc+dec": {Count: 6, P50: 4.0, P99: 9.0, Max: 9.0},
	}
	if n, out := compareData(t, oldData, mustJSON(t, []RunSummary{shifted})); n != 0 {
		t.Fatalf("phase population shift flagged as regression (%d):\n%s", n, out)
	}
}

// Mutscale cells record only a handful of pauses, so their gated tail
// quantiles carry a raised floor: an isolated scheduler stall inside
// the 25 ms floor must pass, a doubled p50 (systemic scaling
// regression) and a tail excursion past the floor must both flag.
func TestCompareSummariesMutScaleFloors(t *testing.T) {
	base := RunSummary{Experiment: "mutscale", Bench: "muts1024", Collector: "G1", OK: true,
		PauseMS: map[string]float64{"p50": 10.0, "p99": 12.5, "max": 12.5},
		TTSPMS:  map[string]float64{"p50": 0.1, "p99": 0.6, "max": 0.6}}
	oldData := mustJSON(t, []RunSummary{base})

	hiccup := base
	hiccup.PauseMS = map[string]float64{"p50": 10.5, "p99": 37.0, "max": 37.0}
	// Wakeup-lateness latency tails are scheduler jitter at mutscale's
	// thread counts and must not be gated there.
	hiccup.LatencyMS = map[string]float64{"p99": 170.0, "p99.9": 240.0}
	withLat := base
	withLat.LatencyMS = map[string]float64{"p99": 8.0, "p99.9": 19.0}
	if n, out := compareData(t, mustJSON(t, []RunSummary{withLat}), mustJSON(t, []RunSummary{hiccup})); n != 0 {
		t.Fatalf("isolated tail stall / latency jitter within the mutscale rules flagged (%d):\n%s", n, out)
	}

	systemic := base
	systemic.PauseMS = map[string]float64{"p50": 25.0, "p99": 30.0, "max": 30.0}
	n, out := compareData(t, oldData, mustJSON(t, []RunSummary{systemic}))
	if n != 1 || !strings.Contains(out, "pause p50 REGRESSION") {
		t.Fatalf("doubled mutscale p50 not flagged as exactly 1 regression (%d):\n%s", n, out)
	}

	gross := base
	gross.PauseMS = map[string]float64{"p50": 10.5, "p99": 60.0, "max": 60.0}
	if n, _ := compareData(t, oldData, mustJSON(t, []RunSummary{gross})); n != 2 {
		t.Fatalf("tail excursion past the mutscale floor: want p99+max flagged, got %d", n)
	}

	// Non-mutscale summaries keep the tight 1 ms floor on the tail.
	plain := base
	plain.Experiment = "table6"
	plainOld := mustJSON(t, []RunSummary{plain})
	plainSlow := plain
	plainSlow.PauseMS = map[string]float64{"p50": 10.5, "p99": 37.0, "max": 37.0}
	if n, _ := compareData(t, plainOld, mustJSON(t, []RunSummary{plainSlow})); n != 2 {
		t.Fatalf("non-mutscale tail regression: want p99+max flagged, got %d", n)
	}
}

func TestCompareRejectsMismatchedFormats(t *testing.T) {
	fp := mustJSON(t, fpReport(1))
	sum := mustJSON(t, []RunSummary{{Bench: "b", Collector: "c", OK: true,
		PauseMS: map[string]float64{"p99": 1}}})
	var c Compare
	if _, err := c.Data(&bytes.Buffer{}, fp, sum); err == nil {
		t.Fatal("mismatched artifact formats not rejected")
	}
}
