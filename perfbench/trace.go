package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one trace share a trace
// id; parent is the index of the enclosing span in the same tracer
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTime is the folded self time of every span with one name.
type layerTime struct {
	Count  int64 `json:"count"`
	SelfNS int64 `json:"self_ns"`
}

// tracer records spans for one goroutine. Spans are kept in memory
// until fold turns completed traces into per-name self times; the spans
// of the last folded traces are kept for the trace file, so memory stays
// bounded however long the run.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32
	trace  uint64
	layers map[string]*layerTime
	rootNS int64 // summed root-span durations
	// coveredNS sums the self times of the spans below the roots.
	coveredNS int64
	last      []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, layers: map[string]*layerTime{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; a span opened with no span open starts a new
// trace.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.trace++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) { t.endAs(id, "") }

// endAs closes span id and, when name is not empty, renames it: a
// caller learns only at the end whether a memo call hit or missed.
func (t *tracer) endAs(id int32, name string) {
	t.spans[id].End = t.now()
	if name != "" {
		t.spans[id].Name = name
	}
	t.open = t.open[:len(t.open)-1]
}

// fold computes self times (duration minus the time covered by child
// spans) for every span recorded since the last fold, adds them to the
// per-name totals and clears the buffer. It must be called with no span
// open.
func (t *tracer) fold() {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		self := d - child[i]
		if s.Parent < 0 {
			t.rootNS += d
		} else {
			t.coveredNS += self
		}
		lt := t.layers[s.Name]
		if lt == nil {
			lt = &layerTime{}
			t.layers[s.Name] = lt
		}
		lt.Count++
		lt.SelfNS += self
	}
	t.last = append(t.last[:0], t.spans...)
	t.spans = t.spans[:0]
}

// reset drops the folded totals (not the kept spans), to start a new
// measurement window.
func (t *tracer) reset() {
	t.layers = map[string]*layerTime{}
	t.rootNS, t.coveredNS = 0, 0
}

// mergeTracers sums the folded totals of several goroutines' tracers
// and returns them with the trace coverage: the share of root-span time
// that the layer spans below the roots account for by self time.
func mergeTracers(ts ...*tracer) (map[string]layerTime, float64) {
	out := map[string]layerTime{}
	var root, covered int64
	for _, t := range ts {
		for name, lt := range t.layers {
			o := out[name]
			o.Count += lt.Count
			o.SelfNS += lt.SelfNS
			out[name] = o
		}
		root += t.rootNS
		covered += t.coveredNS
	}
	return out, ratio(covered, root)
}

// writeTrace writes the kept spans of each tracer and the folded totals
// to path, creating its directory.
func writeTrace(path string, layers map[string]layerTime, ts ...*tracer) error {
	type goroutineSpans struct {
		Spans []span `json:"spans"`
	}
	doc := struct {
		Layers     map[string]layerTime `json:"layers"`
		Goroutines []goroutineSpans     `json:"goroutines"`
	}{Layers: layers}
	for _, t := range ts {
		doc.Goroutines = append(doc.Goroutines, goroutineSpans{t.last})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
