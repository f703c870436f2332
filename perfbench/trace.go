package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side
// of the layer's public API.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // -1 for a root span
	Round  int     `json:"round"`
	Start  float64 `json:"start_ms"` // since the tracer's origin
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, so the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / float64(time.Millisecond) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent, Round: round, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (clipped to the span,
// so overlapping or overrunning children are not double-counted).
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.ms() - covered(s, kids[i])
	}
	return self
}

// covered measures the union of the children's intervals inside p.
func covered(p span, children []span) float64 {
	ivs := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, [2]float64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curA, curB := 0.0, 0.0, 0.0
	for i, iv := range ivs {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}
