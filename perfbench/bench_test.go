package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestBlockQuantile(t *testing.T) {
	// Three blocks of 100; the middle one holds a burst.
	var lat []float64
	for b := 0; b < 3; b++ {
		for i := 0; i < 100; i++ {
			v := float64(i)
			if b == 1 {
				v += 1000
			}
			lat = append(lat, v)
		}
	}
	lat = append(lat, 5000) // after the last full block: left out
	if got, want := blockQuantile(lat, 0.9), quantile(lat[:100], 0.9); got != want {
		t.Errorf("blockQuantile p90 = %v, want the unburst blocks' %v", got, want)
	}
	if got, want := blockQuantile(lat[:50], 0.9), quantile(lat[:50], 0.9); got != want {
		t.Errorf("blockQuantile under one block = %v, want the plain p90 %v", got, want)
	}
	if got, want := blockQuantile(lat, 0.99), quantile(lat, 0.99); got != want {
		t.Errorf("blockQuantile p99 under 1000 samples = %v, want the plain p99 %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "round", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "sim", Parent: 0, Start: 1, End: 6},
		{ID: 2, Name: "desim", Parent: 1, Start: 2, End: 5},
		{ID: 3, Name: "contour", Parent: 0, Start: 6, End: 9},
		// Overlaps contour and overruns the round: only [8, 10] of it
		// lies outside contour and inside the round.
		{ID: 4, Name: "late", Parent: 0, Start: 8, End: 12},
		{ID: 5, Name: "other", Parent: -1, Start: 20, End: 21},
	}
	want := []float64{10 - (5 + 4), 5 - 3, 3, 3, 4, 1}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	// Self times of a properly nested tree add up to the root.
	nested := selfTimes(spans[:4])
	if total := nested[0] + nested[1] + nested[2] + nested[3]; math.Abs(total-10) > 1e-12 {
		t.Errorf("nested self times sum to %v, want 10", total)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr = newTracer()
	root := tr.begin("round", -1, 3)
	child := tr.begin("desim", root, 3)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans not nested: %+v", tr.spans)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the emitted metric names and
// units in step with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench/")
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

func TestEtagVersion(t *testing.T) {
	for in, want := range map[string]int{`"d0-v12"`: 12, `"d1-v1"`: 1, "": 0, `"junk"`: 0} {
		if got := etagVersion(in); got != want {
			t.Errorf("etagVersion(%s) = %d, want %d", in, got, want)
		}
	}
}

// TestBreakdownSumsToTracedRound checks that the printed parts account
// for the traced round_ms_p50 exactly.
func TestBreakdownSumsToTracedRound(t *testing.T) {
	var spans []span
	add := func(name string, parent int, start, end float64) int {
		spans = append(spans, span{ID: len(spans), Name: name, Parent: parent, Round: 1, Start: start, End: end})
		return len(spans) - 1
	}
	// Three rounds: pipeline = sim{core} + contour.update; then the
	// served round.
	for i, d := range []struct{ core, update, served float64 }{{2, 1, 4}, {3, 1, 5}, {2.5, 0.5, 3.5}} {
		base := float64(i) * 100
		p := add("pipeline", -1, base, base+d.core+d.update+0.2)
		s := add("sim", p, base+0.1, base+0.1+d.core+0.05)
		add("core", s, base+0.12, base+0.12+d.core)
		add("contour.update", p, base+0.15+d.core, base+0.15+d.core+d.update)
		add("serve.round", -1, base+50, base+50+d.served)
	}
	b := breakdownOf(spans, selfTimes(spans), 0)
	if b.totalMs != 4 {
		t.Fatalf("traced round_ms_p50 = %v, want 4", b.totalMs)
	}
	total := b.residual
	for _, p := range b.layers {
		total += p.ms
	}
	if math.Abs(total-b.totalMs) > 1e-9 {
		t.Errorf("parts and residual sum to %v, want %v", total, b.totalMs)
	}
	// Pipelines last 3.2, 4.2 and 3.2 ms; served rounds 4, 5 and 3.5.
	want := map[string]float64{"core": 2.5, "contour.update": 1, "sim": 0.05, "serve": 0.8}
	for _, p := range b.layers {
		if math.Abs(p.ms-want[p.name]) > 1e-9 {
			t.Errorf("layer %s = %v, want %v", p.name, p.ms, want[p.name])
		}
	}
}
