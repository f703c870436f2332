// Command benchreport writes machine-readable benchmark JSON files that
// track the repository's quantitative trajectory across PRs.
//
// -kind recon (the default, emitting BENCH_RECON.json) measures the
// sink-side reconstruction hot paths — Voronoi construction, full
// Reconstruct, and Map.Raster — at several report counts k, against the
// retained naive reference implementations (geom.VoronoiNaive,
// Map.RasterNaive).
//
// -kind faults (emitting BENCH_FAULTS.json) runs the fault-injection
// sweep (sim.ExtFaultSweepResults): Iso-Map's packet-level round under
// lossy/bursty channels and mid-round node crashes, reporting delivery
// ratio, retry/energy overhead and map fidelity against the fault-free
// round. -smoke shrinks the sweep to a single cell and one seed for CI.
//
// -kind desim (emitting BENCH_DESIM.json) measures the discrete-event
// core: full packet-level rounds at n = 1k..256k on the production
// typed-event Engine vs the EngineNaive closure-per-event reference
// (throughput, events/sec, ns/event, allocs/op, peak queue depth), the
// isolated scheduler push/pop microbenchmark, and the sharded engine's
// strong-scaling table over a GOMAXPROCS x shards grid at n = 256k.
// -smoke shrinks it to the 1k cell plus a small scaling grid at 16k for
// CI.
//
// -kind trace (emitting BENCH_TRACE.json) runs fully traced packet-level
// rounds — fault-free and under fault injection — and aggregates the
// event stream into per-phase breakdowns (tx/rx counts and bytes, drops
// by cause, phase energy through the Mica2 model) plus sink-side
// reconstruction stage timings. The trace invariant checker runs on
// every recorded round; a violation fails the report. -smoke shrinks it
// to a single small fault-free round for CI.
//
// -kind temporal (emitting BENCH_TEMPORAL.json) runs the temporal
// monitoring sweep (sim.ExtTemporalSweepResults): seeded time-evolving
// fields tracked over multi-round packet-level monitoring, full-report
// rounds against the delta-report protocol, reporting per-round traffic,
// tracking error against the moving ground truth, and sink-side belief
// staleness across field speeds. The report fails if the slow-drift
// delta cell does not beat its full-report pair on traffic at
// comparable tracking error. -smoke shrinks it to one delta cell for
// CI.
//
// Unknown -kind values exit non-zero listing the valid kinds.
//
// Usage:
//
//	benchreport [-kind recon|faults|desim|trace|serve|temporal] [-out FILE] [-maxk 2048]
//	            [-runs 3] [-smoke] [-parallel N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
	"isomap/internal/routing"
	"isomap/internal/sim"
	"isomap/internal/trace"
)

// entry is one (benchmark, k) measurement. NaiveNs is present only where a
// reference implementation exists; Speedup is naive/indexed.
type entry struct {
	Benchmark string  `json:"benchmark"`
	K         int     `json:"k"`
	IndexedNs float64 `json:"indexed_ns_per_op"`
	NaiveNs   float64 `json:"naive_ns_per_op,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

type report struct {
	Generator  string  `json:"generator"`
	Unit       string  `json:"unit"`
	GoMaxProcs int     `json:"gomaxprocs"`
	RasterRes  int     `json:"raster_res"`
	Results    []entry `json:"results"`
}

// rasterRes matches sim.RasterRes, the resolution of the accuracy metric.
const rasterRes = 100

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag values into a kind runner.
type options struct {
	out      string
	maxK     int
	runs     int
	smoke    bool
	parallel int
}

// kindSpec registers one report kind. The registry is the single source
// of truth: dispatch, the usage string and the unknown-kind error all
// derive from it.
type kindSpec struct {
	name string
	doc  string
	run  func(o options) error
}

var kinds = []kindSpec{
	{"recon", "sink-side reconstruction hot paths vs naive references (BENCH_RECON.json)",
		func(o options) error { return runRecon(o.out, o.maxK) }},
	{"faults", "fault-injection sweep: delivery, overhead, map fidelity (BENCH_FAULTS.json)",
		func(o options) error { return runFaults(o.out, o.runs, o.smoke, o.parallel) }},
	{"desim", "discrete-event core throughput vs EngineNaive (BENCH_DESIM.json)",
		func(o options) error { return runDesim(o.out, o.smoke) }},
	{"trace", "traced packet rounds: per-phase breakdowns, stage timings (BENCH_TRACE.json)",
		func(o options) error { return runTrace(o.out, o.smoke) }},
	{"serve", "contour server under churn: incremental vs full rebuild, sustained query latency (BENCH_SERVE.json)",
		func(o options) error { return runServe(o.out, o.smoke) }},
	{"temporal", "evolving-field monitoring: full-report vs delta traffic, tracking error, staleness (BENCH_TEMPORAL.json)",
		func(o options) error { return runTemporal(o.out, o.runs, o.smoke, o.parallel) }},
}

// kindNames returns the registered kind names in registration order.
func kindNames() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// dispatch resolves and runs one report kind; unknown names produce a
// non-nil error listing every valid kind.
func dispatch(kind string, o options) error {
	for _, k := range kinds {
		if k.name == kind {
			return k.run(o)
		}
	}
	return fmt.Errorf("unknown -kind %q (valid kinds: %s)", kind, strings.Join(kindNames(), ", "))
}

func run() error {
	var (
		out      = flag.String("out", "", "output JSON path (- for stdout; default BENCH_<KIND>.json)")
		maxK     = flag.Int("maxk", 2048, "largest report count to measure (recon)")
		kind     = flag.String("kind", "recon", "report kind: "+strings.Join(kindNames(), ", "))
		runs     = flag.Int("runs", 3, "random-seed repetitions per sweep point (faults)")
		smoke    = flag.Bool("smoke", false, "shrunken run for CI (faults, desim, trace)")
		parallel = flag.Int("parallel", 0, "sweep worker-pool width, 0 = GOMAXPROCS (faults); output is identical at any width")
	)
	flag.Parse()
	return dispatch(*kind, options{out: *out, maxK: *maxK, runs: *runs, smoke: *smoke, parallel: *parallel})
}

// faultsReport is the BENCH_FAULTS.json document.
type faultsReport struct {
	Generator string                 `json:"generator"`
	Nodes     int                    `json:"nodes"`
	FieldSide float64                `json:"fieldSide"`
	Runs      int                    `json:"runs"`
	Results   []sim.FaultPointResult `json:"results"`
}

func runFaults(out string, runs int, smoke bool, parallel int) error {
	points := sim.DefaultFaultPoints()
	if smoke {
		points = sim.SmokeFaultPoints()
		runs = 1
	}
	results, err := sim.NewRunner(parallel).ExtFaultSweepResults(runs, points)
	if err != nil {
		return err
	}
	rep := faultsReport{
		Generator: "cmd/benchreport -kind faults",
		Nodes:     400,
		FieldSide: 20,
		Runs:      runs,
		Results:   results,
	}
	if out == "" {
		out = "BENCH_FAULTS.json"
	}
	return writeJSON(out, rep)
}

// desimEntry is one measurement of the discrete-event core. Every field
// appears in every row: a null marks a measurement the row deliberately
// skips (the EngineNaive reference above its size cutoff, the deployment
// size on the scheduler microbenchmark), never an accident of encoding.
// Speedup is naive/engine ns, AllocRatio naive/engine allocs.
type desimEntry struct {
	Benchmark      string   `json:"benchmark"`
	N              *int     `json:"n"`
	NsPerOp        float64  `json:"ns_per_op"`
	AllocsPerOp    int64    `json:"allocs_per_op"`
	Events         *int64   `json:"events"`
	EventsPerSec   *float64 `json:"events_per_sec"`
	NsPerEvent     *float64 `json:"ns_per_event"`
	PeakQueueDepth *int     `json:"peak_queue_depth"`
	NaiveNs        *float64 `json:"naive_ns_per_op"`
	NaiveAllocs    *int64   `json:"naive_allocs_per_op"`
	Speedup        *float64 `json:"speedup"`
	AllocRatio     *float64 `json:"alloc_ratio"`
}

// scalingEntry is one cell of the sharded strong-scaling table: a full
// round at n nodes on shards grid cells with GOMAXPROCS=procs. The
// (1, 1) cell runs the sequential Engine and anchors Speedup.
type scalingEntry struct {
	N          int     `json:"n"`
	Shards     int     `json:"shards"`
	Procs      int     `json:"gomaxprocs"`
	MsPerRound float64 `json:"ms_per_round"`
	Speedup    float64 `json:"speedup_vs_sequential"`
}

// desimReport is the BENCH_DESIM.json document. See EXPERIMENTS.md for
// the field-by-field schema.
type desimReport struct {
	Generator    string         `json:"generator"`
	GoMaxProcs   int            `json:"gomaxprocs"`
	Cores        int            `json:"cores"`
	HardwareNote string         `json:"hardware_note"`
	Results      []desimEntry   `json:"results"`
	Scaling      []scalingEntry `json:"scaling"`
}

func iptr(v int) *int          { return &v }
func i64ptr(v int64) *int64    { return &v }
func fptr(v float64) *float64  { return &v }
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// desimDeploy builds the benchmark deployment used by every desim cell:
// radio range scaled to keep the graph connected at any density, sink at
// the centroid (the BenchmarkFullRound layout).
func desimDeploy(n int, f field.Field) (*routing.Tree, core.Query, error) {
	nw, err := network.DeployUniform(n, f, 1.5*50/math.Sqrt(float64(n)), 4)
	if err != nil {
		return nil, core.Query{}, err
	}
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		return nil, core.Query{}, err
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		return nil, core.Query{}, err
	}
	q, err := core.NewQuery(field.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		return nil, core.Query{}, err
	}
	return tree, q, nil
}

func runDesim(out string, smoke bool) error {
	if out == "" {
		out = "BENCH_DESIM.json"
	}
	sizes := []int{1000, 4000, 16000, 64000, 256000}
	naiveSizes := map[int]bool{1000: true, 4000: true}
	if smoke {
		sizes = []int{1000}
	}
	rep := desimReport{
		Generator:  "cmd/benchreport -kind desim",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Cores:      runtime.NumCPU(),
	}
	if rep.Cores < 8 {
		rep.HardwareNote = fmt.Sprintf("measured on %d core(s): GOMAXPROCS above the core count timeslices instead of parallelizing, so the scaling table bounds overhead rather than demonstrating speedup", rep.Cores)
	}
	f := field.NewSeabed(field.DefaultSeabedConfig())
	fc := core.DefaultFilterConfig()
	cfg := desim.DefaultRadioConfig()
	for _, n := range sizes {
		tree, q, err := desimDeploy(n, f)
		if err != nil {
			return err
		}

		round := func(eng desim.EngineAPI) (*desim.RoundResult, error) {
			return desim.RunRound(desim.RoundSpec{Tree: tree, Field: f, Query: q, Filter: fc, Radio: cfg, Engine: eng})
		}

		// One instrumented round for the event count and peak queue depth.
		eng := desim.NewEngine()
		probe, err := round(eng)
		if err != nil {
			return err
		}
		if len(probe.Delivered) == 0 {
			return fmt.Errorf("desim bench: n=%d round delivered nothing", n)
		}

		e := desimEntry{
			Benchmark:      "FullRound",
			N:              iptr(n),
			Events:         i64ptr(probe.Events),
			PeakQueueDepth: iptr(eng.MaxQueueDepth()),
		}
		e.NsPerOp, e.AllocsPerOp = measureAllocs(func() {
			if _, err := round(nil); err != nil {
				panic(err)
			}
		})
		e.NsPerEvent = fptr(e.NsPerOp / float64(probe.Events))
		e.EventsPerSec = fptr(float64(probe.Events) / (e.NsPerOp / 1e9))
		if naiveSizes[n] {
			naiveNs, naiveAllocs := measureAllocs(func() {
				if _, err := round(desim.NewEngineNaive()); err != nil {
					panic(err)
				}
			})
			e.NaiveNs = fptr(naiveNs)
			e.NaiveAllocs = i64ptr(naiveAllocs)
			e.Speedup = fptr(round2(naiveNs / e.NsPerOp))
			e.AllocRatio = fptr(round2(float64(naiveAllocs) / float64(e.AllocsPerOp)))
		}
		rep.Results = append(rep.Results, e)
		fmt.Fprintf(os.Stderr, "benchreport: desim n=%d done\n", n)
	}

	// Isolated scheduler: bursts of 1024 typed events pushed with scattered
	// timestamps and drained (the BenchmarkEngineSchedule workload), on
	// both engines so every column is populated.
	const burst = 1024
	schedWorkload := func(eng desim.EngineAPI) (nsPerEvent float64, allocs int64) {
		eng.SetHandler(func(desim.Event) {})
		i := 0
		ns, allocs := measureAllocs(func() {
			for j := 0; j < burst; j++ {
				eng.ScheduleEvent(float64(i*509%burst)*1e-4, desim.Event{Seq: int64(i)})
				i++
			}
			eng.Run()
		})
		return ns / burst, allocs
	}
	sched := desimEntry{Benchmark: "EngineSchedule", Events: i64ptr(burst)}
	{
		eng := desim.NewEngine()
		sched.NsPerOp, sched.AllocsPerOp = schedWorkload(eng)
		sched.PeakQueueDepth = iptr(eng.MaxQueueDepth())
		sched.NsPerEvent = fptr(sched.NsPerOp)
		sched.EventsPerSec = fptr(1e9 / sched.NsPerOp)
		naiveNs, naiveAllocs := schedWorkload(desim.NewEngineNaive())
		sched.NaiveNs = fptr(naiveNs)
		sched.NaiveAllocs = i64ptr(naiveAllocs)
		sched.Speedup = fptr(round2(naiveNs / sched.NsPerOp))
		if sched.AllocsPerOp > 0 {
			sched.AllocRatio = fptr(round2(float64(naiveAllocs) / float64(sched.AllocsPerOp)))
		}
	}
	rep.Results = append(rep.Results, sched)

	// Strong scaling: the full round on the sharded engine over a
	// GOMAXPROCS x shards grid. Every cell is byte-identical output-wise
	// (the equivalence tests pin that); only wall time varies.
	scalingSizes := []int{256000}
	shardCounts := []int{1, 4, 16, 64}
	procCounts := []int{1, 2, 4, 8}
	if smoke {
		scalingSizes = []int{16000}
		shardCounts = []int{1, 4}
		procCounts = []int{1, 2}
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, n := range scalingSizes {
		tree, q, err := desimDeploy(n, f)
		if err != nil {
			return err
		}
		baseline := 0.0
		for _, shards := range shardCounts {
			part := network.NewGridPartition(tree.Network(), shards)
			for _, procs := range procCounts {
				runtime.GOMAXPROCS(procs)
				best := math.Inf(1)
				for attempt := 0; attempt < 2; attempt++ {
					var eng desim.EngineAPI = desim.NewEngine()
					if shards > 1 || procs > 1 {
						eng = desim.NewShardedEngine(part, procs)
					}
					start := time.Now()
					if _, err := desim.RunRound(desim.RoundSpec{Tree: tree, Field: f, Query: q, Filter: fc, Radio: cfg, Engine: eng}); err != nil {
						return err
					}
					if s := time.Since(start).Seconds(); s < best {
						best = s
					}
				}
				if shards == 1 && procs == 1 {
					baseline = best
				}
				rep.Scaling = append(rep.Scaling, scalingEntry{
					N: n, Shards: shards, Procs: procs,
					MsPerRound: round2(best * 1000),
					Speedup:    round2(baseline / best),
				})
				fmt.Fprintf(os.Stderr, "benchreport: desim scaling n=%d shards=%d procs=%d: %.0f ms\n",
					n, shards, procs, best*1000)
			}
		}
	}
	runtime.GOMAXPROCS(prevProcs)

	return writeJSON(out, rep)
}

// traceEntry is one traced round: its aggregated per-phase breakdown
// plus the headline round stats for quick diffing across PRs.
type traceEntry struct {
	Scenario     string        `json:"scenario"`
	Nodes        int           `json:"nodes"`
	LossRate     float64       `json:"lossRate,omitempty"`
	CrashFrac    float64       `json:"crashFraction,omitempty"`
	SinkReports  int           `json:"sinkReports"`
	RoundSeconds float64       `json:"roundSeconds"`
	Summary      trace.Summary `json:"summary"`
}

// traceReport is the BENCH_TRACE.json document.
type traceReport struct {
	Generator  string       `json:"generator"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []traceEntry `json:"results"`
}

// traceScenario is one (n, faults) cell of the trace report.
type traceScenario struct {
	name      string
	nodes     int
	lossRate  float64
	crashFrac float64
}

func runTrace(out string, smoke bool) error {
	if out == "" {
		out = "BENCH_TRACE.json"
	}
	scenarios := []traceScenario{
		{name: "fault-free", nodes: 1000},
		{name: "faulted", nodes: 1000, lossRate: 0.05, crashFrac: 0.02},
	}
	if smoke {
		scenarios = []traceScenario{{name: "fault-free", nodes: 400}}
	}
	rep := traceReport{
		Generator:  "cmd/benchreport -kind trace",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range scenarios {
		e, err := runTraceScenario(sc)
		if err != nil {
			return fmt.Errorf("trace scenario %s: %w", sc.name, err)
		}
		rep.Results = append(rep.Results, e)
		fmt.Fprintf(os.Stderr, "benchreport: trace %s (n=%d) done\n", sc.name, sc.nodes)
	}
	return writeJSON(out, rep)
}

// runTraceScenario executes one fully traced packet round — network and
// sink reconstruction — verifies every trace invariant, and aggregates.
func runTraceScenario(sc traceScenario) (traceEntry, error) {
	f := field.NewSeabed(field.DefaultSeabedConfig())
	fc := core.DefaultFilterConfig()
	cfg := desim.DefaultRadioConfig()
	nw, err := network.DeployUniform(sc.nodes, f, 1.5*50/math.Sqrt(float64(sc.nodes)), 4)
	if err != nil {
		return traceEntry{}, err
	}
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		return traceEntry{}, err
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		return traceEntry{}, err
	}
	q, err := core.NewQuery(field.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		return traceEntry{}, err
	}
	var plan *faults.Plan
	if sc.lossRate > 0 || sc.crashFrac > 0 {
		plan, err = faults.New(faults.Config{
			Seed: 1, Channel: faults.ChannelBernoulli, LossRate: sc.lossRate,
			CrashFraction: sc.crashFrac, CrashStart: 0.05, CrashEnd: 0.6,
			Protect: []network.NodeID{tree.Root()},
		}, nw.Len())
		if err != nil {
			return traceEntry{}, err
		}
		cfg.FrameDeadline = 1.5
	}
	rec := trace.NewRecorder(sc.nodes * 1024)
	pr, err := desim.RunRound(desim.RoundSpec{Tree: tree, Field: f, Query: q, Filter: fc, Radio: cfg, Plan: plan, Trace: rec})
	if err != nil {
		return traceEntry{}, err
	}
	// Trace the sink side too: reconstruct and raster what was delivered.
	m := contour.Reconstruct(pr.Delivered, q.Levels, field.BoundsRect(f),
		nw.Node(sink).Value, contour.Options{Regulate: true, Trace: rec})
	m.Raster(rasterRes, rasterRes)

	if v := rec.Check(trace.CheckConfig{MaxRetries: cfg.MaxRetries}); len(v) > 0 {
		return traceEntry{}, fmt.Errorf("trace invariants violated: %v (+%d more)", v[0], len(v)-1)
	}
	if v := trace.CheckCounters(rec.Events(), nw.Len(),
		func(n int32) int64 { return pr.Counters.TxBytes(network.NodeID(n)) },
		func(n int32) int64 { return pr.Counters.RxBytes(network.NodeID(n)) }); len(v) > 0 {
		return traceEntry{}, fmt.Errorf("trace/counters mismatch: %v (+%d more)", v[0], len(v)-1)
	}
	s := rec.Summarize()
	return traceEntry{
		Scenario:     sc.name,
		Nodes:        sc.nodes,
		LossRate:     sc.lossRate,
		CrashFrac:    sc.crashFrac,
		SinkReports:  len(pr.Delivered),
		RoundSeconds: pr.TotalSeconds,
		Summary:      s,
	}, nil
}

func runRecon(out string, maxK int) error {
	if out == "" {
		out = "BENCH_RECON.json"
	}
	bounds := geom.Rect(0, 0, 50, 50)
	rep := report{
		Generator:  "cmd/benchreport",
		Unit:       "ns/op",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		RasterRes:  rasterRes,
	}
	for _, k := range []int{32, 128, 512, 2048} {
		if k > maxK {
			break
		}
		sites := benchSites(k)
		reports, levels := benchReports(k)
		m := contour.Reconstruct(reports, levels, bounds, 9, contour.DefaultOptions())

		voro := measure(func() { geom.Voronoi(sites, bounds) })
		voroNaive := measure(func() { geom.VoronoiNaive(sites, bounds) })
		rep.Results = append(rep.Results, withSpeedup(entry{
			Benchmark: "Voronoi", K: k, IndexedNs: voro, NaiveNs: voroNaive,
		}))

		rep.Results = append(rep.Results, entry{
			Benchmark: "Reconstruct", K: k,
			IndexedNs: measure(func() {
				contour.Reconstruct(reports, levels, bounds, 9, contour.DefaultOptions())
			}),
		})

		raster := measure(func() { m.Raster(rasterRes, rasterRes) })
		rasterNaive := measure(func() { m.RasterNaive(rasterRes, rasterRes) })
		rep.Results = append(rep.Results, withSpeedup(entry{
			Benchmark: "MapRaster", K: k, IndexedNs: raster, NaiveNs: rasterNaive,
		}))
		fmt.Fprintf(os.Stderr, "benchreport: k=%d done\n", k)
	}

	return writeJSON(out, rep)
}

// writeJSON marshals doc with indentation to path, or stdout for "-".
func writeJSON(path string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// measure times fn with the testing benchmark harness.
func measure(fn func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return float64(r.NsPerOp())
}

// measureAllocs times fn and reports its heap allocations per op.
func measureAllocs(fn func()) (nsPerOp float64, allocsPerOp int64) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return float64(r.NsPerOp()), r.AllocsPerOp()
}

func withSpeedup(e entry) entry {
	if e.IndexedNs > 0 {
		e.Speedup = math.Round(e.NaiveNs/e.IndexedNs*100) / 100
	}
	return e
}

// benchSites mirrors the geom benchmark input: k sites uniform over the
// 50x50 field, seeded by k.
func benchSites(k int) []geom.Point {
	rng := rand.New(rand.NewSource(int64(k)))
	sites := make([]geom.Point, k)
	for i := range sites {
		sites[i] = geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	return sites
}

// benchReports mirrors the contour benchmark input: k reports on the
// lowest isolevel plus k/4 on the next.
func benchReports(k int) ([]core.Report, field.Levels) {
	levels := field.Levels{Low: 6, High: 12, Step: 2}
	rng := rand.New(rand.NewSource(int64(k) * 7))
	var reports []core.Report
	for i := 0; i < k; i++ {
		theta := rng.Float64() * 2 * math.Pi
		reports = append(reports, core.Report{
			Level:      6,
			LevelIndex: 0,
			Pos:        geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Grad:       geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)},
			Source:     -1,
		})
	}
	for i := 0; i < k/4; i++ {
		theta := rng.Float64() * 2 * math.Pi
		reports = append(reports, core.Report{
			Level:      8,
			LevelIndex: 1,
			Pos:        geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Grad:       geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)},
			Source:     -1,
		})
	}
	return reports, levels
}
