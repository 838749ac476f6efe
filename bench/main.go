// Command bench is the repo's benchmark: four seeded steady-state
// workloads driven through the public lxr API on one mutator and 2 GC
// threads, seven end-to-end metrics measured with tracing off, and a
// per-layer ledger from a second, traced run. BENCHMARK.json lists the
// two workloads whose every metric repeats on a shared host; the other
// two run the same way by name. See README.md.
//
// The benchmark driver runs one window per invocation:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output, one JSON object. Without
// --workload all four workloads run, untraced then traced, and -out
// writes a result file that -agree compares with another:
//
//	bench [-seed N] [-seconds S] [-short] [-out FILE]
//	bench -agree A.json B.json [-manifest BENCHMARK.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"lxr/internal/trace"
)

// setupRepeats is how many times an untraced invocation sets its
// workload up; setup_s is the median, and the last instance is the one
// measured.
const setupRepeats = 5

// value is one metric in a result: null when it has too few samples.
type value struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
}

// result is one window's outcome. Its first four fields, with n left
// out, are the line the benchmark driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	failures []string
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	// Short marks a -short run: good for iterating, not for comparing.
	Short     bool                          `json:"short,omitempty"`
	Workloads map[string]map[string]*result `json:"workloads"` // workload -> "end_to_end" | "per_layer"
}

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only (default: all four, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same operation scripts")
		seconds  = flag.Int("seconds", 45, "length of the measurement window (BENCHMARK.json run_seconds)")
		traced   = flag.Int("trace", 0, "with -workload: 1 runs the traced window and reports the per-layer metrics")
		short    = flag.Bool("short", false, "5 s windows, for iterating and tests; results are marked non-comparable")
		out      = flag.String("out", "", "write the results as JSON to this file, for -agree")
		agree    = flag.Bool("agree", false, "compare two result files (arguments) metric by metric against the bounds in -manifest")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark manifest -agree takes its bounds from")
		traceDir = flag.String("tracedir", ".bench_build", "directory the traced run's Chrome trace files go to")
	)
	flag.BoolVar(&showSubWindows, "subwindows", false, "print each sub-window's end-to-end figures to standard error")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree A.json B.json")
			os.Exit(2)
		}
		os.Exit(agreeFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1)))
	}
	if *short {
		*seconds = 5
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	length := time.Duration(*seconds) * time.Second

	if *workload != "" {
		s := specByName(*workload)
		if s == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		var res *result
		var err error
		if *traced != 0 {
			res, err = runTraced(s, *seed, length, *traceDir)
		} else {
			res, err = runEndToEnd(s, *seed, length)
		}
		if err != nil {
			fatal(err)
		}
		defs := endToEndDefs
		if *traced != 0 {
			defs = perLayerDefs
		}
		printTable(s, *short, defs, res)
		// The driver's line: no sample counts, and a number for every
		// per-layer metric (0 where the table above prints null).
		line := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
		for name, v := range res.Metrics {
			if v.Value == nil && *traced != 0 {
				zero := 0.0
				v.Value = &zero
			}
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
		b, _ := json.Marshal(line) // cannot fail: plain maps of numbers and strings
		fmt.Println(string(b))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Seed: *seed, Seconds: *seconds, Short: *short, Workloads: map[string]map[string]*result{}}
	ok := true
	for _, s := range specs {
		e2e, err := runEndToEnd(s, *seed, length)
		if err != nil {
			fatal(err)
		}
		printTable(s, *short, endToEndDefs, e2e)
		layers, err := runTraced(s, *seed, length, *traceDir)
		if err != nil {
			fatal(err)
		}
		printTable(s, *short, perLayerDefs, layers)
		file.Workloads[s.name] = map[string]*result{"end_to_end": e2e, "per_layer": layers}
		ok = ok && e2e.Correct && layers.Correct
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runEndToEnd measures one untraced window.
func runEndToEnd(s *spec, seed uint64, length time.Duration) (*result, error) {
	var r *run
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var err error
		if r, err = setUp(s, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if i < setupRepeats-1 {
			r.abandon()
		}
	}
	w := r.measure(length)
	figs := w.endToEnd()
	figs["setup_s"] = exact(medianFloat(setups), len(setups))
	return w.result(endToEndDefs, figs), nil
}

// runTraced measures an untraced reference window and then a traced
// window of the same script, each half the length, and reports the
// traced window's ledger.
func runTraced(s *spec, seed uint64, length time.Duration, traceDir string) (*result, error) {
	r, err := setUp(s, seed, nil)
	if err != nil {
		return nil, err
	}
	ref := r.measure(length / 2)

	tracedLength := length - length/2
	tr := trace.New(trace.Config{ShardCap: traceShardCap(tracedLength)})
	if r, err = setUp(s, seed, tr); err != nil {
		return nil, err
	}
	w := r.measure(tracedLength)
	figs := ledger(w, ref)
	for name, f := range isolated() {
		figs[name] = f
	}
	res := w.result(perLayerDefs, figs)
	path, err := writeChrome(tr, traceDir, s, seed)
	if err != nil {
		res.Correct = false
		res.failures = append(res.failures, err.Error())
	} else {
		fmt.Printf("%s: Chrome trace written to %s\n", s.name, path)
	}
	return res, nil
}

// result packages a window's figures under the given definitions.
func (w *window) result(defs []metricDef, figs map[string]figure) *result {
	res := &result{
		Correct:   true,
		Attempted: max(w.attempted, 1),
		Failed:    w.failed,
		Metrics:   map[string]value{},
		failures:  w.failures,
	}
	for _, c := range w.run.clients {
		if c.count.checkFailures > 0 {
			res.Correct = false
		}
	}
	for _, d := range defs {
		f := figs[d.name]
		v := value{Unit: d.unit, N: f.n}
		if f.ok {
			fv := f.v
			v.Value = &fv
		}
		res.Metrics[d.name] = v
	}
	return res
}

// printTable prints every metric by name with its unit and sample count.
func printTable(s *spec, short bool, defs []metricDef, res *result) {
	note := ""
	if short {
		note = "  [-short: not comparable]"
	}
	fmt.Printf("\n%s: heap=%.0fMB live=%.1fMB ops_attempted=%d ops_failed=%d correct=%v%s\n", s.name,
		float64(s.heapBytes)/mb, float64(s.liveBytes())/mb, res.Attempted, res.Failed, res.Correct, note)
	for _, f := range res.failures {
		fmt.Printf("  FAILURE: %s\n", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tn\tbetter")
	for _, d := range defs {
		v := res.Metrics[d.name]
		val := "null"
		if v.Value != nil {
			val = fmt.Sprintf("%.6g", *v.Value)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%s\n", d.name, val, d.unit, v.N, d.better)
	}
	tw.Flush()
}
