package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto's legacy importer reads): B/E span pairs, "i" instants and
// "M" metadata, timestamps in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object-form container: the event array plus
// metadata consumers can ignore (Perfetto does) but the flight-dump
// cross-referencing workflow needs — the tracer epoch in absolute
// unix ns, per-shard loss counts, and the dump reason.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// endpoint is one sortable timeline entry: a span begin, a span end,
// or an instant.
type endpoint struct {
	ns   int64 // event time
	ph   byte  // 'B', 'E' or 'i'
	dur  int64 // span duration (tie-breaking)
	name string
	arg  uint64
	arg2 uint64
}

// WriteChrome drains the tracer and writes the full timeline as Chrome
// trace-event JSON. extra is merged into otherData (dump reason, drift
// window index, run label). Safe to call while writers are still
// recording — torn slots are dropped — but loss accounting is only
// exact at quiescence.
func (t *Tracer) WriteChrome(w io.Writer, extra map[string]any) error {
	if t == nil {
		return fmt.Errorf("trace: nil tracer")
	}
	dumps := t.Drain()
	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"epoch_unix_ns": t.epoch.UnixNano(),
		},
	}
	lost := map[string]uint64{}
	for _, d := range dumps {
		if d.Lost > 0 {
			lost[d.Label] = d.Lost
		}
	}
	if len(lost) > 0 {
		out.OtherData["lost_events"] = lost
	}
	for k, v := range extra {
		out.OtherData[k] = v
	}
	for _, d := range dumps {
		if len(d.Events) == 0 {
			continue
		}
		tid := d.Shard + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": d.Label},
		})
		eps := make([]endpoint, 0, 2*len(d.Events))
		for _, ev := range d.Events {
			name := t.nameOf(ev.Name)
			switch ev.Kind {
			case KindSpan:
				eps = append(eps,
					endpoint{ns: ev.T, ph: 'B', dur: ev.Dur, name: name, arg: ev.Arg, arg2: ev.Arg2},
					endpoint{ns: ev.T + ev.Dur, ph: 'E', dur: ev.Dur, name: name})
			case KindInstant:
				eps = append(eps, endpoint{ns: ev.T, ph: 'i', name: name, arg: ev.Arg, arg2: ev.Arg2})
			}
		}
		// A valid B/E stream needs, at equal timestamps: ends before
		// begins (a sibling span closing exactly where the next opens),
		// inner (shorter) spans ending before their enclosing span, and
		// enclosing (longer) spans beginning before their children.
		sort.SliceStable(eps, func(i, j int) bool {
			a, b := eps[i], eps[j]
			if a.ns != b.ns {
				return a.ns < b.ns
			}
			if a.ph != b.ph {
				return phaseOrder(a.ph) < phaseOrder(b.ph)
			}
			if a.ph == 'E' {
				return a.dur < b.dur
			}
			return a.dur > b.dur
		})
		for _, ep := range eps {
			ce := chromeEvent{
				Name: ep.name, Ph: string(ep.ph),
				TS: float64(ep.ns) / 1e3, PID: 1, TID: tid,
			}
			if ep.ph == 'i' {
				ce.S = "t"
			}
			if ep.ph != 'E' {
				ce.Args = eventArgs(ep.name, ep.arg, ep.arg2)
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func phaseOrder(ph byte) int {
	switch ph {
	case 'E':
		return 0
	case 'i':
		return 1
	}
	return 2 // 'B'
}

// eventArgs renders an event's payload words with per-name semantics.
func eventArgs(name string, arg, arg2 uint64) map[string]any {
	switch {
	case strings.HasPrefix(name, "pause:"):
		return map[string]any{"ttsp_us": float64(arg) / 1e3}
	case strings.HasPrefix(name, "trigger:"):
		return map[string]any{
			"signal":    math.Float64frombits(arg),
			"threshold": math.Float64frombits(arg2),
		}
	case name == "rendezvous":
		if arg == 0 {
			return nil
		}
		return map[string]any{"mutators": arg}
	case name == "barrier-slow":
		return map[string]any{"slow_ops": arg}
	case name == "alloc-publish":
		return map[string]any{"bytes": arg}
	}
	if arg == 0 && arg2 == 0 {
		return nil
	}
	m := map[string]any{"a0": arg}
	if arg2 != 0 {
		m["a1"] = arg2
	}
	return m
}

// ValidateChrome checks that r holds well-formed Chrome trace-event
// JSON: it parses, contains at least one event, every B has a matching
// same-name E on its tid with stack discipline, and per-tid timestamps
// are monotone non-decreasing. The exporter golden test and the
// lxr-trace -validate CI step share this.
func ValidateChrome(r io.Reader) error {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return fmt.Errorf("trace: parse: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("trace: no events")
	}
	type key struct{ pid, tid int }
	stacks := map[key][]string{}
	lastTS := map[key]float64{}
	for i, ev := range tr.TraceEvents {
		k := key{ev.PID, ev.TID}
		if ev.Ph == "M" {
			continue
		}
		if last, ok := lastTS[k]; ok && ev.TS < last {
			return fmt.Errorf("trace: event %d (%s %q): ts %.3f < previous %.3f on tid %d",
				i, ev.Ph, ev.Name, ev.TS, last, ev.TID)
		}
		lastTS[k] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q with empty stack on tid %d", i, ev.Name, ev.TID)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return fmt.Errorf("trace: event %d: E %q closes B %q on tid %d", i, ev.Name, top, ev.TID)
			}
			stacks[k] = st[:len(st)-1]
		case "i", "I":
			// instants carry no stack state
		default:
			return fmt.Errorf("trace: event %d: unknown ph %q", i, ev.Ph)
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("trace: tid %d: %d unclosed span(s), first %q", k.tid, len(st), st[0])
		}
	}
	return nil
}
