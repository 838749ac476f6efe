// Command lxr-trace runs one workload under one collector and renders
// its GC timeline: every pause with its duration and nested phases, the
// rendezvous (time-to-safepoint) spans, the concurrent controller's
// quanta, and the pacer's trigger decisions.
//
// Without -trace it prints the classic text event log (pause log plus
// end-of-run summary statistics). With -trace it additionally exports
// the run's full event timeline as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. With -flight N the
// tracer keeps only the trailing N events per shard and dumps them only
// when an -interval window flags drift or the run fails — an always-on
// flight recorder for chasing intermittent tail-latency incidents.
//
// Usage:
//
//	lxr-trace -bench lusearch -collector LXR -heap 2.0 -trace out.json
//	          [-flight N] [-interval D] [-scale quick|default]
//	          [-gcthreads N] [-json file|-]
//	lxr-trace -validate out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"lxr/internal/harness"
	"lxr/internal/trace"
	"lxr/internal/workload"
)

// ms converts nanoseconds to milliseconds for display.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func main() {
	cf := harness.RegisterCommonFlags(flag.CommandLine,
		harness.CommonDefaults{Scale: "quick", Bench: "lusearch"})
	var (
		collector = flag.String("collector", "LXR", "collector (LXR, G1, Shenandoah, ZGC, Serial, Parallel, SemiSpace, Immix)")
		heap      = flag.Float64("heap", 2.0, "heap factor relative to scaled minimum")
		traceOut  = flag.String("trace", "", "write the run's event timeline as Chrome trace-event JSON to this file ('-' = stdout); load in Perfetto or chrome://tracing")
		flightN   = flag.Int("flight", 0, "flight-recorder mode: keep only the trailing N events per shard and dump them to -trace when an -interval window flags drift or the run fails (0 = full-run capture)")
		validate  = flag.String("validate", "", "validate a -trace output file (span nesting, timestamp order) and exit; used by CI")
	)
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := trace.ValidateChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "validate %s: %v\n", *validate, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Chrome trace\n", *validate)
		return
	}

	opts, err := cf.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Out = os.Stdout
	if *flightN > 0 && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "-flight needs -trace (the dump destination)")
		os.Exit(2)
	}
	if *flightN > 0 && opts.Interval == 0 {
		fmt.Fprintln(os.Stderr, "-flight needs -interval (drift windows are the dump trigger)")
		os.Exit(2)
	}

	benchName := "lusearch"
	if len(opts.Bench) > 0 {
		benchName = opts.Bench[0]
	}
	if len(opts.Bench) > 1 {
		fmt.Fprintln(os.Stderr, "lxr-trace runs one benchmark; give -bench a single name")
		os.Exit(2)
	}
	spec, ok := workload.ByName(benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; available:", benchName)
		for _, s := range workload.Suite() {
			fmt.Fprintf(os.Stderr, " %s", s.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	if *traceOut != "" {
		opts.Trace = &harness.TraceOptions{
			Flight: *flightN,
			Dump: func(label, reason string, tr *trace.Tracer) {
				writeTrace(*traceOut, label, reason, tr)
			},
		}
	}

	rate := float64(0)
	if spec.Request != nil {
		rate = harness.CalibrateRate(spec, opts)
		fmt.Printf("calibrated arrival rate: %.0f req/s\n", rate)
	}
	r := harness.RunOne(spec, *collector, *heap, rate, opts)
	if !r.OK {
		fmt.Printf("%s cannot run %s at %.1fx heap (%d MB)\n", *collector, benchName, *heap, r.HeapBytes>>20)
		if r.Wall == 0 {
			return // collector cannot exist at this heap; nothing ran
		}
	}

	printSummary(r, *collector, benchName, *heap)

	if *cf.JSON != "" {
		writeSummaryJSON(*cf.JSON, r)
	}
}

// writeTrace exports the tracer as Chrome trace-event JSON with the
// same temp-file+rename discipline as lxr-bench's outputs, so an
// aborted write never destroys a previous timeline.
func writeTrace(path, label, reason string, tr *trace.Tracer) {
	extra := map[string]any{"label": label, "reason": reason}
	if path == "-" {
		if err := tr.WriteChrome(os.Stdout, extra); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := tr.WriteChrome(f, extra); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, path); err != nil {
		fmt.Fprintf(os.Stderr, "rename %s: %v\n", tmp, err)
		os.Exit(1)
	}
	fmt.Printf("trace (%s) written to %s\n", reason, path)
}

// writeSummaryJSON archives the run as a one-element summary array in
// the same format as lxr-bench -json.
func writeSummaryJSON(path string, r *harness.RunResult) {
	write := func(w io.Writer) error {
		return harness.WriteJSON(w, []harness.RunSummary{r.Summary()})
	}
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "write json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close %s: %v\n", tmp, err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, path); err != nil {
		fmt.Fprintf(os.Stderr, "rename %s: %v\n", tmp, err)
		os.Exit(1)
	}
}

// printSummary renders the classic text event log.
func printSummary(r *harness.RunResult, collector, bench string, heap float64) {
	fmt.Printf("\n%s on %s, %.1fx heap (%d MB): %s wall\n", collector, bench, heap, r.HeapBytes>>20, r.Wall.Round(time.Microsecond))
	if r.Latency != nil && r.Latency.Count() > 0 {
		fmt.Printf("QPS %.0f over %d metered requests\n", r.QPS, r.Latency.Count())
		for _, p := range []float64{50, 99, 99.9, 99.99} {
			fmt.Printf("  latency p%g: %.3f ms\n", p, r.LatencyPercentileMS(p))
		}
	}
	fmt.Printf("pauses: %d, total STW %s\n", len(r.Pauses), r.TotalSTW().Round(time.Microsecond))
	for _, p := range []float64{50, 95, 99, 100} {
		fmt.Printf("  pause p%g: %.3f ms\n", p, r.PausePercentile(p))
	}
	kinds := make([]string, 0, len(r.PauseHist))
	for k := range r.PauseHist {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		h := r.PauseHist[k]
		fmt.Printf("  phase %-12s n=%-5d p50 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			k, h.Count(), ms(h.Percentile(50)), ms(h.Percentile(99)), ms(h.Max()))
	}
	fmt.Println("MMU (window -> min mutator utilization):")
	for _, pt := range r.MMU {
		fmt.Printf("  %8s  %.3f\n", pt.Window, pt.Utilization)
	}
	fmt.Printf("collector work: %s (concurrent %s), mutator busy: %s\n",
		r.GCWork.Round(time.Microsecond), r.ConcWork.Round(time.Microsecond), r.MutBusy.Round(time.Microsecond))

	if len(r.Counters) > 0 {
		fmt.Println("counters:")
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-26s %d\n", k, r.Counters[k])
		}
	}

	fmt.Println("\npause log (first 40):")
	for i, p := range r.Pauses {
		if i >= 40 {
			fmt.Printf("  ... %d more\n", len(r.Pauses)-40)
			break
		}
		fmt.Printf("  %-8s %8.3f ms (ttsp %6.3f ms)\n", p.Kind,
			float64(p.Dur)/float64(time.Millisecond), float64(p.TTSP)/float64(time.Millisecond))
	}
}
