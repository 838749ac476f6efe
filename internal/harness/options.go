package harness

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"lxr/internal/workload"
)

// CommonDefaults parameterize RegisterCommonFlags per binary (the tools
// share flag names and semantics but differ in defaults: lxr-bench runs
// the full suite at default scale, lxr-trace one benchmark at quick
// scale).
type CommonDefaults struct {
	Scale string // default -scale value ("" = "default")
	Bench string // default -bench value ("" = all)
}

// CommonFlags holds the session flags shared by cmd/lxr-bench and
// cmd/lxr-trace, registered in one place so the two binaries cannot
// drift apart. Call Options after the flag set is parsed.
type CommonFlags struct {
	Scale       *string
	GCThreads   *int
	ConcWorkers *int
	Interval    *time.Duration
	Bench       *string
	JSON        *string
}

// RegisterCommonFlags registers the shared session flags on fs.
func RegisterCommonFlags(fs *flag.FlagSet, def CommonDefaults) *CommonFlags {
	if def.Scale == "" {
		def.Scale = "default"
	}
	return &CommonFlags{
		Scale:       fs.String("scale", def.Scale, "workload scaling: quick or default"),
		GCThreads:   fs.Int("gcthreads", 4, "parallel GC threads"),
		ConcWorkers: fs.Int("concworkers", 0, "GC workers borrowed by concurrent phases between pauses (0 = half of gcthreads)"),
		Interval:    fs.Duration("interval", 0, "periodic per-window report: snapshot merged histograms on this period and emit windowed latency/pause percentiles (e.g. 2s); windows whose p99 departs more than 2x from the trailing mean are marked drift:true and carry absolute timestamps"),
		Bench:       fs.String("bench", def.Bench, "comma-separated benchmark subset (default all)"),
		JSON:        fs.String("json", "", "write run summaries as JSON to this file ('-' = stdout)"),
	}
}

// Options validates the parsed flag values and converts them into a
// session Options. Errors are usage-style (print and exit 2).
func (f *CommonFlags) Options() (Options, error) {
	o := Options{
		GCThreads:   *f.GCThreads,
		ConcWorkers: *f.ConcWorkers,
		Interval:    *f.Interval,
	}
	switch *f.Scale {
	case "quick":
		o.Scale = workload.QuickScale()
	case "default":
		o.Scale = workload.DefaultScale()
	default:
		return Options{}, fmt.Errorf("unknown scale %q (want quick or default)", *f.Scale)
	}
	if *f.Bench != "" {
		o.Bench = strings.Split(*f.Bench, ",")
	}
	return o, nil
}
