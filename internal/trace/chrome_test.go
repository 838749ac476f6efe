package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodedTrace mirrors the exporter output for assertions.
type decodedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// goldenTracer builds a deterministic timeline resembling one LXR epoch:
// a rendezvous span abutting a pause span with three nested phases on the
// GC shard, a quantum containing a loan on the conctrl shard, a trigger
// instant on the policy shard and a sampled instant on a mutator lane.
func goldenTracer(t *testing.T) *Tracer {
	t.Helper()
	tr := New(Config{ShardCap: 64})
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	pauseRC := tr.Intern("pause:rc")

	// GC shard: rendezvous [100,110), pause [110,200) with nested
	// flush [115,125), increments [130,170) containing sweep [140,160).
	span(tr, ShardGC, NameRendezvous, us(100), us(10), 3)
	tr.Span(ShardGC, pauseRC, tr.Epoch().Add(us(110)), us(90), 10000, 0)
	span(tr, ShardGC, NameFlush, us(115), us(10), 12)
	span(tr, ShardGC, NameIncrements, us(130), us(40), 4096)
	span(tr, ShardGC, NameSweep, us(140), us(20), 7)

	// Conctrl shard: quantum [50,300) containing loan [60,90).
	tr.Span(ShardConc, NameQuantum, tr.Epoch().Add(us(50)), us(250), 2, 0)
	tr.Span(ShardConc, NameLoan, tr.Epoch().Add(us(60)), us(30), 2, 512)

	// Policy + mutator instants (recorded "now", i.e. at positive ts).
	tr.Trigger(tr.TriggerName("epoch"), 1.5, 1.0)
	tr.Instant(MutShard(4), NameBarrierSlow, 64, 0)
	return tr
}

// TestWriteChromeGolden is the exporter golden test: the output is
// well-formed per ValidateChrome (every B matched by a same-name E in
// stack discipline, per-tid timestamps monotone), spans land as B/E
// pairs, nesting and sibling order are correct at shared timestamps, and
// metadata/args survive the round trip.
func TestWriteChromeGolden(t *testing.T) {
	tr := goldenTracer(t)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, map[string]any{"label": "golden", "reason": "end"}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}

	if err := ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exporter output fails its own validator: %v", err)
	}

	var got decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", got.DisplayTimeUnit)
	}
	if _, ok := got.OtherData["epoch_unix_ns"]; !ok {
		t.Error("otherData missing epoch_unix_ns")
	}
	if got.OtherData["label"] != "golden" || got.OtherData["reason"] != "end" {
		t.Errorf("extra metadata not merged: %v", got.OtherData)
	}
	if _, ok := got.OtherData["lost_events"]; ok {
		t.Error("lost_events present on a run with no overwrites")
	}

	// B/E balance per (tid, name); thread metadata for every used shard.
	begins, ends := map[string]int{}, map[string]int{}
	threads := map[int]string{}
	gcOrder := []string{}
	var gcTID int
	for _, ev := range got.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
			threads[ev.TID] = ev.Args["name"].(string)
		case "B":
			begins[ev.Name]++
		case "E":
			ends[ev.Name]++
		case "i":
			if ev.S != "t" {
				t.Errorf("instant %q has scope %q, want t", ev.Name, ev.S)
			}
		}
	}
	for name, n := range begins {
		if ends[name] != n {
			t.Errorf("%q: %d begins, %d ends", name, n, ends[name])
		}
	}
	wantThreads := map[string]bool{"gc": true, "conctrl": true, "policy": true, "mut4": true}
	for tid, label := range threads {
		if wantThreads[label] {
			delete(wantThreads, label)
			if label == "gc" {
				gcTID = tid
			}
		}
	}
	for label := range wantThreads {
		t.Errorf("no thread_name metadata for shard %q", label)
	}

	// GC-shard endpoint order: the rendezvous must close exactly where
	// the pause opens (E before B at equal ts), and the enclosing pause
	// must open before its first nested phase.
	for _, ev := range got.TraceEvents {
		if ev.TID == gcTID && ev.Ph != "M" {
			gcOrder = append(gcOrder, ev.Ph+" "+ev.Name)
		}
	}
	wantOrder := []string{
		"B rendezvous", "E rendezvous",
		"B pause:rc", "B flush", "E flush",
		"B increments", "B sweep", "E sweep", "E increments",
		"E pause:rc",
	}
	if len(gcOrder) != len(wantOrder) {
		t.Fatalf("gc shard has %d endpoints, want %d: %v", len(gcOrder), len(wantOrder), gcOrder)
	}
	for i := range wantOrder {
		if gcOrder[i] != wantOrder[i] {
			t.Fatalf("gc endpoint %d = %q, want %q (full: %v)", i, gcOrder[i], wantOrder[i], gcOrder)
		}
	}

	// Per-name arg rendering.
	for _, ev := range got.TraceEvents {
		switch {
		case ev.Ph == "B" && ev.Name == "pause:rc":
			if ttsp := ev.Args["ttsp_us"].(float64); ttsp != 10 {
				t.Errorf("pause ttsp_us = %v, want 10", ttsp)
			}
		case ev.Ph == "B" && ev.Name == "loan":
			if ev.Args["workers"].(float64) != 2 || ev.Args["items"].(float64) != 512 {
				t.Errorf("loan args = %v", ev.Args)
			}
		case ev.Ph == "i" && ev.Name == "trigger:epoch":
			if ev.Args["signal"].(float64) != 1.5 || ev.Args["threshold"].(float64) != 1.0 {
				t.Errorf("trigger args = %v", ev.Args)
			}
		}
	}
}

// TestWriteChromeLostEvents checks that an overwritten shard surfaces its
// loss count in otherData.
func TestWriteChromeLostEvents(t *testing.T) {
	tr := New(Config{ShardCap: 8, Flight: true})
	for i := 0; i < 20; i++ {
		span(tr, ShardGC, NameFlush, time.Duration(i)*time.Microsecond, time.Microsecond, uint64(i))
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var got decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	lost, ok := got.OtherData["lost_events"].(map[string]any)
	if !ok {
		t.Fatalf("lost_events missing or mistyped: %v", got.OtherData)
	}
	if lost["gc"].(float64) != 12 {
		t.Errorf("gc loss = %v, want 12", lost["gc"])
	}
}

func TestWriteChromeNilTracer(t *testing.T) {
	var tr *Tracer
	if err := tr.WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil tracer WriteChrome should error")
	}
}

// TestValidateChromeRejects feeds the validator each class of malformed
// trace it exists to catch.
func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"garbage", "not json", "parse"},
		{"empty", `{"traceEvents":[]}`, "no events"},
		{"unclosed B", `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}`, "unclosed"},
		{"E on empty stack", `{"traceEvents":[
			{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}`, "empty stack"},
		{"crossed spans", `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":3,"pid":1,"tid":1},
			{"name":"b","ph":"E","ts":4,"pid":1,"tid":1}]}`, "closes"},
		{"time reversal", `{"traceEvents":[
			{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":4,"pid":1,"tid":1}]}`, "previous"},
		{"unknown ph", `{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]}`, "unknown ph"},
	}
	for _, c := range cases {
		err := ValidateChrome(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestValidateChromeAcceptsSeparateTIDs checks the stack discipline is
// per-(pid,tid): overlapping spans on different tids are legal (the
// conctrl quantum overlaps GC pauses by design).
func TestValidateChromeAcceptsSeparateTIDs(t *testing.T) {
	in := `{"traceEvents":[
		{"name":"quantum","ph":"B","ts":1,"pid":1,"tid":2},
		{"name":"pause","ph":"B","ts":2,"pid":1,"tid":1},
		{"name":"pause","ph":"E","ts":3,"pid":1,"tid":1},
		{"name":"quantum","ph":"E","ts":4,"pid":1,"tid":2}]}`
	if err := ValidateChrome(strings.NewReader(in)); err != nil {
		t.Errorf("cross-tid overlap rejected: %v", err)
	}
}
