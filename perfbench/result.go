package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit and the count it rests
// on: samples for a percentile, records for a rate, repetitions for a
// median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Count int     `json:"count"`
}

// result is everything one run learned. The full document goes to the
// results file and to the second-to-last stdout line; the last line is
// the summary the driver reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Config    map[string]any     `json:"config"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Ops       map[string]opTally `json:"ops"`
	Metrics   map[string]metric  `json:"metrics"`
	// Info holds the wall-clock figures: measured and reported with
	// their counts, but too unsteady on a shared two-vCPU host to be
	// compared end-to-end metrics.
	Info   map[string]metric `json:"info,omitempty"`
	Layers map[string]metric `json:"layers,omitempty"`
	// Unmeasured names layer metrics that have no value on this
	// workload, with the reason.
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
	// SelfMillis is each span name's summed self time (traced run).
	SelfMillis map[string]float64 `json:"self_ms,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
}

// summary is the driver-facing last line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) summary() summary {
	src := r.Metrics
	if r.Traced {
		src = r.Layers
	}
	out := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for k, m := range src {
		out.Metrics[k] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// problem records a failed correctness check; any problem fails the run.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, value float64, count int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Count: count}
}

func (r *result) layer(name, unit string, value float64, count int) {
	r.Layers[name] = metric{Value: value, Unit: unit, Count: count}
}

// opTally counts attempts and failures of one operation type.
type opTally struct {
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	FirstErr  string        `json:"first_error,omitempty"`
	Total     time.Duration `json:"total_ns"` // summed call time
}

// ops is the per-operation failure accounting, safe for the load
// goroutines to share. A failure is a non-2xx after the SDK's retries
// or a 2xx whose body did not decode.
type ops struct {
	mu sync.Mutex
	m  map[string]*opTally
}

func newOps() *ops { return &ops{m: make(map[string]*opTally)} }

func (o *ops) add(kind string, err error, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.m[kind]
	if t == nil {
		t = &opTally{}
		o.m[kind] = t
	}
	t.Attempted++
	t.Total += d
	if err != nil {
		t.Failed++
		if t.FirstErr == "" {
			t.FirstErr = err.Error()
		}
	}
}

func (o *ops) tally() (map[string]opTally, int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]opTally, len(o.m))
	att, fail := 0, 0
	for k, t := range o.m {
		out[k] = *t
		att += t.Attempted
		fail += t.Failed
	}
	return out, att, fail
}

// overhead is the time the traced pass's calls took over the time the
// same calls would take at the untraced pass's mean per kind, so a
// different mix of kinds between the passes does not count.
func overhead(traced, untraced map[string]opTally) float64 {
	var got, want float64
	for kind, t := range traced {
		u, ok := untraced[kind]
		if !ok || u.Attempted == 0 {
			continue
		}
		got += float64(t.Total)
		want += float64(t.Attempted) * float64(u.Total) / float64(u.Attempted)
	}
	return got / want
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
