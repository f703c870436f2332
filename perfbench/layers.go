package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"isomap/internal/sim"
)

// layerRun is one pass of the per-layer replay: for each round, the
// pipeline (the layers called one by one, span "pipeline") and the same
// round served by a replay server through ServeHTTP (span
// "serve.round"), followed by the dashboard reads, each once cold and
// once warm.
type layerRun struct {
	outs  []*roundOut // the reported rounds
	stats struct{ reused, recomputed int }
	wall  time.Duration
}

// replayKeys are the reads the replay serves after each round.
func replayKeys(dep, round int) []string {
	keys := make([]string, 0, 8)
	for i := 0; i < hotKeys; i++ {
		p, _ := hotPath(dep, i)
		keys = append(keys, p)
	}
	x, y := float64(round%47)+0.5, float64((round*7)%43)+0.25
	return append(keys, depPath(dep, fmt.Sprintf("/classify?x=%g&y=%g", x, y)),
		depPath(dep, "/range?x0=5&y0=5&x1=20&y1=20&rows=8&cols=8"))
}

// runLayers replays w.warm+w.layerRounds rounds of every deployment of w
// and keeps the last w.layerRounds of them. With a nil tracer it records
// nothing and only the wall time counts (the untraced baseline of the
// tracing overhead).
func runLayers(wd string, w *workload, tr *tracer) (*layerRun, error) {
	lr := &layerRun{}
	cfg := w.cfg
	t0 := time.Now()
	srv, _, err := newServer(wd, w)
	if err != nil {
		return nil, err
	}
	pipes := make([]*pipeline, cfg.Deployments)
	for dep := range pipes {
		if pipes[dep], err = newPipeline(cfg, dep, tr); err != nil {
			return nil, err
		}
	}
	for r := 1; r <= w.warm+w.layerRounds; r++ {
		for dep, p := range pipes {
			// The pipeline and the served round run the same work; which
			// goes first alternates, so order effects (caches, GC debt)
			// cancel out of the serve layer's self time.
			var out *roundOut
			runPipeline := func() error {
				root := tr.begin("pipeline", -1, r)
				var err error
				out, err = p.step(tr, root)
				tr.end(root)
				return err
			}
			serveRound := func() error {
				rec := httptest.NewRecorder()
				post := httptest.NewRequest(http.MethodPost, depPath(dep, "/rounds"), nil)
				id := tr.begin("serve.round", -1, r)
				srv.ServeHTTP(rec, post)
				tr.end(id)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("replay POST round %d: status %d", r, rec.Code)
				}
				return nil
			}
			first, second := runPipeline, serveRound
			if r%2 == 0 {
				first, second = serveRound, runPipeline
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if r > w.warm {
				lr.outs = append(lr.outs, out)
			}
			q := tr.begin("query", -1, r)
			id := tr.begin("contour.raster", q, r)
			ra := p.inc.Raster(rasterSide, rasterSide)
			tr.end(id)
			id = tr.begin("contour.raster.pgm", q, r)
			p.inc.Raster(pgmSide, pgmSide)
			tr.end(id)
			tr.end(q)

			keys := replayKeys(dep, r)
			for _, key := range keys {
				for _, name := range []string{"serve.get.miss", "serve.get.hit"} {
					id := tr.begin(name, -1, r)
					rec := get(srv, key)
					tr.end(id)
					if rec.Code != http.StatusOK {
						return nil, fmt.Errorf("replay GET %s: status %d", key, rec.Code)
					}
					if key == keys[hotRaster] && !bytes.Equal(rec.Body.Bytes(), rasterJSON(r, ra)) {
						return nil, fmt.Errorf("output gate: replay server raster at version %d differs from the layer replay", r)
					}
				}
			}
		}
		if r == w.warm {
			for _, p := range pipes {
				st := p.inc.Stats()
				lr.stats.reused -= st.CellsReused
				lr.stats.recomputed -= st.CellsRecomputed
			}
		}
	}
	for _, p := range pipes {
		st := p.inc.Stats()
		lr.stats.reused += st.CellsReused
		lr.stats.recomputed += st.CellsRecomputed
	}
	// Restore replay: a fresh round source seeking to the checkpoint
	// round, as serve's restore does.
	env, dyn, err := buildEnv(cfg, 0)
	if err != nil {
		return nil, err
	}
	src := &sim.RoundSource{Env: env, Dyn: dyn, FaultEvery: cfg.FaultEvery, Shards: cfg.Shards,
		Workers: cfg.Workers, Delta: cfg.Delta, DeltaExpiry: cfg.DeltaExpiry}
	id := tr.begin("sim.seek", -1, restoreAt)
	err = src.SeekRound(restoreAt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	lr.wall = time.Since(t0)
	return lr, nil
}

// layerMetrics derives the per-layer metrics from the traced run's spans
// and outputs, the untraced run's wall time and the load's counters.
// Per-round figures cover the reported rounds, after w.warm.
func layerMetrics(w *workload, tr *tracer, lr *layerRun, untraced time.Duration, ld *loadResult) (map[string]float64, breakdown) {
	spans := tr.spans
	self := selfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		if s.Round > w.warm {
			by[s.Name] = append(by[s.Name], s.ms())
		}
	}
	bd := breakdownOf(spans, self, w.warm)
	m := map[string]float64{}

	var desimClean, desimFaulted, nsClean, nsFaulted []float64
	var events, allocD, frames, retries, drops, suppressed, crossings, delivered, sent float64
	var belief, expired, age, coreReports, allocC float64
	var nDelta, nCore float64
	var desimSpans []span
	for _, s := range spansNamed(spans, "desim") {
		if s.Round > w.warm {
			desimSpans = append(desimSpans, s)
		}
	}
	for _, o := range lr.outs {
		allocC += float64(o.contourAlloc)
		if o.coreRes != nil {
			nCore++
			coreReports += float64(len(o.coreRes.Reports))
		}
		r := o.desimRes
		if r == nil {
			continue
		}
		ms := desimSpans[int(nDelta)].ms()
		nDelta++
		ns := ms * 1e6 / float64(r.Events)
		if o.faulted {
			desimFaulted, nsFaulted = append(desimFaulted, ms), append(nsFaulted, ns)
		} else {
			desimClean, nsClean = append(desimClean, ms), append(nsClean, ns)
		}
		events += float64(r.Events)
		allocD += float64(o.desimAlloc)
		frames += float64(r.Radio.DataSent)
		retries += float64(r.Radio.Retries)
		drops += float64(r.Radio.Drops)
		suppressed += float64(r.Suppressed)
		crossings += float64(r.Crossings)
		delivered += float64(r.Radio.Delivered)
		sent += float64(r.Radio.DataSent)
		belief += float64(o.agedSt.Size)
		expired += float64(o.agedSt.Expired)
		age += o.meanAge
	}
	m["desim.round_ms"] = orZero(median(desimClean))
	m["desim.faulted_round_ms"] = orZero(median(desimFaulted))
	m["desim.events_per_round"] = ratio(events, nDelta)
	m["desim.ns_per_event"] = orZero(median(nsClean))
	m["desim.faulted_ns_per_event"] = orZero(median(nsFaulted))
	m["desim.alloc_mb_per_round"] = ratio(allocD, nDelta) / (1 << 20)
	m["desim.data_frames_per_round"] = ratio(frames, nDelta)
	m["desim.retries_per_round"] = ratio(retries, nDelta)
	m["desim.drops_per_round"] = ratio(drops, nDelta)
	m["desim.suppress_ratio"] = ratio(suppressed, suppressed+crossings)
	m["desim.delivered_ratio"] = ratio(delivered, sent)
	m["faults.plan_ms"] = orZero(median(by["faults"]))
	m["monitor.apply_us"] = orZero(median(by["monitor"])) * 1000
	m["monitor.belief_reports"] = ratio(belief, nDelta)
	m["monitor.expired_per_round"] = ratio(expired, nDelta)
	m["monitor.mean_age_rounds"] = ratio(age, nDelta)
	m["core.run_ms"] = orZero(median(by["core"]))
	m["core.reports_per_round"] = ratio(coreReports, nCore)
	m["contour.update_ms"] = orZero(median(by["contour.update"]))
	m["contour.raster_ms"] = orZero(median(by["contour.raster"]))
	m["contour.cells_reused_pct"] = 100 * ratio(float64(lr.stats.reused), float64(lr.stats.reused+lr.stats.recomputed))
	m["contour.alloc_kb_per_round"] = ratio(allocC, float64(len(lr.outs))) / 1024
	m["serve.handler_us_hit"] = orZero(median(by["serve.get.hit"])) * 1000
	m["serve.handler_us_miss"] = orZero(median(by["serve.get.miss"])) * 1000
	v := ld.vars
	m["serve.not_modified_pct"] = 100 * ratio(float64(v["not_modified"]), float64(v["not_modified"]+v["queries"]))
	m["serve.self_ms"] = bd.part("serve")
	m["serve.query_ms_p99_during_round"] = orZero(quantile(latencies(duringRound(ld)), 0.99))
	m["sim.build_ms"] = orZero(median(msOf(spansNamed(spans, "sim.build"))))
	m["sim.restore_replay_ms"] = orZero(median(msOf(spansNamed(spans, "sim.seek"))))
	m["runtime.gc_cpu_pct"] = ld.gcPct
	m["trace.round_ms_p50"] = bd.totalMs
	m["trace.residual_ms"] = bd.residual
	m["trace.overhead_pct"] = 100 * (lr.wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	return m, bd
}

// breakdown accounts for the traced round_ms_p50 (the median served
// round of the reported ones). Each layer's part is its median self time
// over the reported rounds (0 in a round where it did not run). The serve layer's part is
// the median over rounds of the served round less that round's pipeline:
// publish, checkpoint and HTTP, which the replay can time only through
// the server as a whole. The residual is what no layer explains: the
// pipeline's time outside its layer spans, plus the difference between
// a median of sums and a sum of medians. The parts and the residual sum
// to totalMs.
type breakdown struct {
	totalMs  float64
	residual float64
	layers   []part // sorted by name; includes "serve"
}

type part struct {
	name string
	ms   float64
}

func (b breakdown) part(name string) float64 {
	for _, p := range b.layers {
		if p.name == name {
			return p.ms
		}
	}
	return 0
}

// breakdownOf computes the breakdown over the rounds after warm.
func breakdownOf(spans []span, self []float64, warm int) breakdown {
	// Pipeline and served-round spans come in pairs, in replay order.
	var served, serveSelf []float64
	index := map[int]int{} // pipeline span id -> its ordinal
	var pipes []span
	for _, s := range spans {
		if s.Round <= warm {
			continue
		}
		switch s.Name {
		case "serve.round":
			served = append(served, s.ms())
		case "pipeline":
			index[s.ID] = len(pipes)
			pipes = append(pipes, s)
		}
	}
	for i := range served {
		serveSelf = append(serveSelf, served[i]-pipes[i].ms())
	}
	// Layer spans sit under a pipeline span, directly or through "sim".
	pipelineOf := func(s span) int {
		for s.Parent >= 0 {
			s = spans[s.Parent]
			if s.Name == "pipeline" {
				return s.ID
			}
		}
		return -1
	}
	perLayer := map[string][]float64{"serve": serveSelf}
	for _, s := range spans {
		p := pipelineOf(s)
		if _, ok := index[p]; !ok {
			continue
		}
		if perLayer[s.Name] == nil {
			perLayer[s.Name] = make([]float64, len(pipes))
		}
		perLayer[s.Name][index[p]] += self[s.ID]
	}
	b := breakdown{totalMs: orZero(median(served))}
	b.residual = b.totalMs
	for name, xs := range perLayer {
		ms := orZero(median(xs))
		b.layers = append(b.layers, part{name, ms})
		b.residual -= ms
	}
	sort.Slice(b.layers, func(i, j int) bool { return b.layers[i].name < b.layers[j].name })
	return b
}

func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// duringRound returns the GETs whose time in flight overlapped a POST
// round's.
func duringRound(ld *loadResult) []sample {
	rounds := append([]sample(nil), ld.rounds...)
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].start < rounds[j].start })
	// maxEnd[i] is the latest end among the first i+1 rounds by start.
	maxEnd := make([]time.Duration, len(rounds))
	for i, r := range rounds {
		maxEnd[i] = r.end
		if i > 0 {
			maxEnd[i] = max(maxEnd[i], maxEnd[i-1])
		}
	}
	var out []sample
	for _, s := range ld.all {
		if s.kind == kindRound {
			continue
		}
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].start >= s.end })
		if i > 0 && maxEnd[i-1] > s.start {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.latencyMs())
	}
	return out
}

func msOf(ss []span) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.ms())
	}
	return out
}
