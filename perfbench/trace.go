package main

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// experiment share a trace id: the campaign name plus the experiment's
// Key; campaign-level spans use the campaign name alone.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the run's spans in memory; they are written out when the
// run ends. A nil *tracer records nothing, which is how untraced
// campaigns run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	round int
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: t.round, Name: name, Trace: trace,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span that end closes, so that children recorded in
// between can name it as their parent.
func (t *tracer) begin(name, trace string, parent int) int {
	now := time.Now()
	return t.add(name, trace, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// setRound tags the spans recorded from now on with round r.
func (t *tracer) setRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// drop discards round r's spans.
func (t *tracer) drop(r int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.Round != r {
			kept = append(kept, s)
		}
	}
	t.spans = kept
}

// durations returns the durations of round r's spans called name.
func (t *tracer) durations(r int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Round == r && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// byTrace sums the durations of round r's spans with the given names
// by trace id.
func (t *tracer) byTrace(r int, names ...string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Round == r && slices.Contains(names, s.Name) {
			out[s.Trace] += s.dur()
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
