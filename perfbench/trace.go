package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds since the run started, and the span that
// caused it (0 for a root). Spans of one run share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Run: t.run})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Run: t.run,
	})
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes one span per line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent calls under one parent); the covered part is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per span name, for the trace summary.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// selfMillis returns the self times, in milliseconds, of every span
// called name.
func selfMillis(spans []span, self map[int]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}
