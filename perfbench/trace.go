package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/backend"
)

// span is one traced interval. Spans of one call or request share Trace;
// Parent is 0 for a root. Times are milliseconds from the run's start.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"span"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Calls  int64   `json:"oracle_calls,omitempty"`
}

// tracer keeps spans in memory; the benchmark writes them out at the end.
// Spans are recorded in the benchmark's own code around calls into the
// program's layers. Layers the program runs inside one call (engine phases,
// dispatch attempts, server queue/run/verify) become child spans laid end
// to end from durations the program itself reports.
type tracer struct {
	t0    time.Time
	spans []span
	trace int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.t0)) / float64(time.Millisecond) }

// newTrace starts a new trace identifier.
func (t *tracer) newTrace() int { t.trace++; return t.trace }

// add records a span and returns its identifier.
func (t *tracer) add(trace, parent int, name string, start, end float64, calls int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end, Calls: calls})
	return id
}

// child is a reported duration to lay out under a parent span.
type child struct {
	name  string
	d     time.Duration
	calls int64
	kids  []child
}

// layout places children end to end from start under parent, recursively.
func (t *tracer) layout(trace, parent int, start float64, kids []child) {
	at := start
	for _, k := range kids {
		d := float64(k.d) / float64(time.Millisecond)
		id := t.add(trace, parent, k.name, at, at+d, k.calls)
		t.layout(trace, id, at, k.kids)
		at += d
	}
}

// engineLayer maps an engine to the layer prefix its phases report under.
func engineLayer(engine string) string {
	if engine == "expand" {
		return "expand."
	}
	return "core."
}

// dispatchChildren turns a backend.Result into the spans under a dispatch:
// one span per attempt when the dispatch made resilience decisions, with
// the winning attempt owning the reported phases; otherwise the phases
// directly. A failed dispatch (including a False proof through a fallback
// chain) reports neither, so its time stays the dispatch's own.
func dispatchChildren(spec string, res *backend.Result) []child {
	if res == nil {
		return nil
	}
	phases := func(engine string) []child {
		out := make([]child, len(res.Phases))
		for i, p := range res.Phases {
			out[i] = child{name: engineLayer(engine) + p.Name, d: p.Duration, calls: p.OracleCalls}
		}
		return out
	}
	if len(res.Attempts) == 0 {
		return phases(spec)
	}
	out := make([]child, len(res.Attempts))
	for i, a := range res.Attempts {
		out[i] = child{name: "backend.attempt." + a.Engine, d: a.Duration}
		if i == len(res.Attempts)-1 && a.Outcome == backend.OutcomeOK {
			out[i].kids = phases(a.Engine)
		}
	}
	return out
}

// layerStat is one row of the self-time table.
type layerStat struct {
	name        string
	count       int
	total, self float64 // ms
	calls       int64
}

// selfTimes sums, per span name, the span's duration and its self time:
// the duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]*layerStat {
	covered := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - covered[s.ID]
		st.calls += s.Calls
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSelfTable prints the per-layer self-time table, largest first.
func writeSelfTable(w io.Writer, st map[string]*layerStat, roots int) {
	rows := make([]*layerStat, 0, len(st))
	var all float64
	for _, r := range st {
		rows = append(rows, r)
		all += r.self
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s %12s\n", "layer", "spans", "total_ms", "self_ms", "self%", "self_ms/root")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %6.1f%% %12.4f\n",
			r.name, r.count, r.total, r.self, 100*r.self/all, r.self/float64(max(roots, 1)))
	}
}
