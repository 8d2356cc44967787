package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no benchmark spans). Name is
// "layer.op" with layer = package name; Parent is 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Start    int64  `json:"start_ns"` // since the recorder's origin
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer is the in-memory span recorder of a traced run. A nil *tracer
// records nothing, so the measured code has one path for both runs.
type tracer struct {
	workload string
	origin   time.Time
	iter     int
	spans    []span
	open     []int // indexes into spans; one goroutine drives the benchmark
	// Counts taken at the same boundaries as the spans (the latest value
	// wins), and outputs kept for a later comparison.
	counts map[string]float64
	notes  map[string]string
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), counts: map[string]float64{}, notes: map[string]string{}}
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

func (t *tracer) note(name, text string) {
	if t != nil {
		t.notes[name] = text
	}
}

// nextIter numbers the spans that follow.
func (t *tracer) nextIter() {
	if t != nil {
		t.iter++
	}
}

// start opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Workload: t.workload, Iter: t.iter,
		Start: int64(time.Since(t.origin)),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = int64(time.Since(t.origin))
		t.open = t.open[:len(t.open)-1]
	}
}

// named returns the durations, in seconds, of every span called name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// under is named restricted to spans below a span called root.
func (t *tracer) under(root, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if t.spans[p-1].Name == root {
				out = append(out, s.dur().Seconds())
				break
			}
		}
	}
	return out
}

// selfTimes returns each span's self time keyed by span id: its duration
// minus the part of that interval its child spans cover (overlapping
// children are counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSelfSeconds sums, per root span called rootName, the self times of
// every span below it, and returns one total per root: the share of an
// end-to-end iteration the named layers account for (the root's own self
// time is the benchmark's glue and is left out).
func layerSelfSeconds(spans []span, rootName string) []float64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	totals := map[int]time.Duration{}
	var roots []int
	for _, s := range spans {
		if s.Name == rootName {
			roots = append(roots, s.ID)
			totals[s.ID] = 0
			continue
		}
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == rootName {
				totals[p] += self[s.ID]
				break
			}
		}
	}
	out := make([]float64, len(roots))
	for i, id := range roots {
		out[i] = totals[id].Seconds()
	}
	return out
}
