// Command perfbench is the repository's benchmark: one served-round
// workload against an in-process serve.Server on a loopback listener,
// its end-to-end metrics, an output gate, and (with --trace 1) a replay
// that times each layer from outside through its public functions. See
// README.md for the workloads, the metrics and their units.
//
//	go run . --workload churn-dashboard --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// An output-gate mismatch exits 1 without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Seeds: the default, and one held out from tuning that must also pass
// the output gate.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees; every workload
// reports all of them (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"query_ms_p50", "ms"},
	{"query_ms_p99", "ms"},
	{"heap_mb", "MiB"},
	{"restore_s", "s"},
	{"tx_bytes_per_round", "bytes"},
	{"map_error_pct", "%"},
}

// perLayer are the traced replay's metrics (--trace 1). A layer that
// does no work on a workload reports 0.
var perLayer = []metricDef{
	{"desim.round_ms", "ms"},
	{"desim.faulted_round_ms", "ms"},
	{"desim.events_per_round", "count"},
	{"desim.ns_per_event", "ns"},
	{"desim.faulted_ns_per_event", "ns"},
	{"desim.alloc_mb_per_round", "MiB"},
	{"desim.data_frames_per_round", "count"},
	{"desim.retries_per_round", "count"},
	{"desim.drops_per_round", "count"},
	{"desim.suppress_ratio", "ratio"},
	{"desim.delivered_ratio", "ratio"},
	{"faults.plan_ms", "ms"},
	{"monitor.apply_us", "us"},
	{"monitor.belief_reports", "count"},
	{"monitor.expired_per_round", "count"},
	{"monitor.mean_age_rounds", "rounds"},
	{"core.run_ms", "ms"},
	{"core.reports_per_round", "count"},
	{"contour.update_ms", "ms"},
	{"contour.raster_ms", "ms"},
	{"contour.cells_reused_pct", "%"},
	{"contour.alloc_kb_per_round", "KiB"},
	{"serve.handler_us_hit", "us"},
	{"serve.handler_us_miss", "us"},
	{"serve.not_modified_pct", "%"},
	{"serve.self_ms", "ms"},
	{"serve.query_ms_p99_during_round", "ms"},
	{"sim.build_ms", "ms"},
	{"sim.restore_replay_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"trace.round_ms_p50", "ms"},
	{"trace.residual_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "churn-dashboard", "churn-dashboard or delta-packet")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 20, "length of the timed load phase")
	traceFlag := fs.Int("trace", 0, "1 adds the traced per-layer replay and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	wd, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(wd)
	dur := time.Duration(*seconds) * time.Second
	rep, err := measure(w, wd, *workdir, *seed, dur, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs one workload: the untraced load, the output gate, and
// with traced set the per-layer replay. It prints the human-readable
// report and returns the result line.
func measure(w *workload, wd, spanDir string, seed int64, dur time.Duration, traced bool, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "workload %s  seed %d  seconds %.0f  trace %v\n", w.name, seed, dur.Seconds(), traced)
	fmt.Fprintf(out, "host: cores=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	t0 := time.Now()
	ld, err := w.load(wd, w, seed, dur)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	g, err := runGate(w, ld.replay, ld.bodies)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "load phase (set-up, load, restores) %.1f s\n", t1.Sub(t0).Seconds())
	fmt.Fprintf(out, "output gate: passed (%d served raster versions, %d replayed rounds) in %.1f s\n",
		g.checked, sum(ld.replay), time.Since(t1).Seconds())
	props := []prop{
		{"faulted_round_share", fmt.Sprintf("%.3f", g.faultedShare)},
		{"suppress_ratio", fmt.Sprintf("%.4f", g.suppressRatio)},
		{"cells_reused_share", fmt.Sprintf("%.2f%%", g.cellsReusedPct)},
	}
	for _, p := range props {
		fmt.Fprintf(out, "property %-22s %s\n", p.name, p.value)
	}
	rep := &report{Correct: true, Attempted: len(ld.all), Metrics: map[string]metricValue{}}
	for _, s := range ld.all {
		if !s.ok {
			rep.Failed++
		}
	}
	fmt.Fprintf(out, "samples: %d rounds, %d queries\n", len(ld.rounds), len(ld.queries))
	fmt.Fprintf(out, "metric %-34s %.6f\n", "failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)))

	var vals map[string]float64
	defs := endToEnd
	if !traced {
		vals = map[string]float64{
			"setup_s":            median(ld.setup),
			"round_ms_p50":       quantile(latencies(ld.rounds), 0.5),
			"round_ms_p90":       blockQuantile(latencies(ld.rounds), 0.9),
			"query_ms_p50":       quantile(latencies(ld.queries), 0.5),
			"query_ms_p99":       blockQuantile(latencies(ld.queries), 0.99),
			"heap_mb":            median(ld.heapMB),
			"restore_s":          median(ld.restore),
			"tx_bytes_per_round": g.txBytesPerRound,
			"map_error_pct":      g.mapErrorPct,
		}
	} else {
		defs = perLayer
		// Untraced replays before and after the traced one, so warm-up
		// does not bias the tracing overhead either way.
		before, err := runLayers(wd, w, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		lr, err := runLayers(wd, w, tr)
		if err != nil {
			return nil, err
		}
		after, err := runLayers(wd, w, nil)
		if err != nil {
			return nil, err
		}
		untraced := (before.wall + after.wall) / 2
		fmt.Fprintf(out, "layer replays: untraced %.1f s, traced %.1f s, untraced %.1f s\n",
			before.wall.Seconds(), lr.wall.Seconds(), after.wall.Seconds())
		if err := tr.write(filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
		var bd breakdown
		vals, bd = layerMetrics(w, tr, lr, untraced, ld)
		printBreakdown(out, bd)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-34s %.6g %s\n", d.name, v, d.unit)
	}
	return rep, nil
}

func printBreakdown(out io.Writer, b breakdown) {
	fmt.Fprintf(out, "traced round_ms_p50 %.3f ms, as median self time per layer:\n", b.totalMs)
	parts := append(append([]part(nil), b.layers...), part{"residual (no layer explains)", b.residual})
	total := 0.0
	for _, p := range parts {
		total += p.ms
		fmt.Fprintf(out, "  %-30s %9.3f ms  %5.1f%%\n", p.name, p.ms, 100*ratio(p.ms, b.totalMs))
	}
	fmt.Fprintf(out, "  %-30s %9.3f ms\n", "sum", total)
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
