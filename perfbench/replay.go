package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/metrics"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/monitor"
	"isomap/internal/network"
	"isomap/internal/serve"
	"isomap/internal/sim"
)

// Round mechanics the replay mirrors from sim.RoundSource and
// serve.NewServer. The output gate compares every replayed round with
// RoundSource.Next, so a drift here fails the benchmark instead of
// skewing it.
const (
	roundDt        = 0.5  // RoundSource's default time step
	faultLoss      = 0.05 // faulted rounds' channel loss rate
	faultCrashFrac = 0.05 // faulted rounds' crashing node fraction
	rasterSide     = 100  // the dashboard raster (JSON)
	pgmSide        = 64   // the dashboard raster (PGM)
	oracleSide     = 64   // resolution of the Reconstruct comparisons
)

// pipeline replays one deployment's rounds by calling each layer's
// public functions in the order sim.RoundSource.Next and the server's
// ingest call them: sense, then core.Run (analytic rounds) or
// faults.New + desim + monitor.AgedMap (delta rounds), then
// contour.Incremental.Update.
type pipeline struct {
	cfg    serve.Config
	env    *sim.Env
	dyn    field.DynamicField
	bounds geom.Polygon
	opts   contour.Options
	inc    *contour.Incremental
	ds     *desim.DeltaState
	aged   *monitor.AgedMap
	round  int
}

// buildEnv builds deployment dep of cfg the way serve.NewServer does.
func buildEnv(cfg serve.Config, dep int) (*sim.Env, field.DynamicField, error) {
	seed := cfg.Seed + int64(dep)
	env, err := sim.NewRunner(1).Build(sim.Scenario{Nodes: cfg.Nodes, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("build deployment %d: %w", dep, err)
	}
	var dyn field.DynamicField = field.DefaultSilting(env.Field)
	if cfg.TemporalField != "" {
		dyn, err = field.NewTemporal(cfg.TemporalField, env.Field, cfg.FieldSpeed, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("temporal field: %w", err)
		}
	}
	return env, dyn, nil
}

func newPipeline(cfg serve.Config, dep int, tr *tracer) (*pipeline, error) {
	id := tr.begin("sim.build", -1, 0)
	env, dyn, err := buildEnv(cfg, dep)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	opts := contour.DefaultOptions()
	opts.Workers = cfg.Workers
	bounds := field.BoundsRect(env.Field)
	p := &pipeline{cfg: cfg, env: env, dyn: dyn, bounds: bounds, opts: opts,
		inc: contour.NewIncremental(env.Scenario.Levels, bounds, opts)}
	if cfg.Delta {
		if p.ds, err = desim.NewDeltaState(env.Network.Len(), desim.DeltaConfig{}); err != nil {
			return nil, err
		}
		if p.aged, err = monitor.NewAgedMap(monitor.AgedConfig{ExpiryRounds: cfg.DeltaExpiry}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// roundOut is what one replayed round produced and cost.
type roundOut struct {
	round    int
	t        float64
	faulted  bool
	reports  []core.Report
	sink     float64
	m        *contour.Map
	txBytes  int64
	coreRes  *core.Result       // analytic rounds
	desimRes *desim.RoundResult // delta rounds
	agedSt   monitor.AgedStats
	meanAge  float64
	// Heap bytes allocated by the desim call and by the contour update
	// (traced replay only).
	desimAlloc, contourAlloc uint64
}

// allocBytes reads the cumulative heap allocation counter; it does not
// stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// step replays the next round under parent (a span id, or -1).
func (p *pipeline) step(tr *tracer, parent int) (*roundOut, error) {
	p.round++
	out := &roundOut{round: p.round, t: float64(p.round) * roundDt}
	env := p.env
	simID := tr.begin("sim", parent, p.round)
	f := p.dyn.At(out.t)
	out.faulted = p.cfg.FaultEvery > 0 && p.round%p.cfg.FaultEvery == 0
	if p.cfg.Delta {
		radio := desim.DefaultRadioConfig()
		var plan *faults.Plan
		if out.faulted {
			id := tr.begin("faults", simID, p.round)
			var err error
			plan, err = faults.New(faults.Config{
				Seed:          env.Scenario.Seed + int64(p.round),
				Channel:       faults.ChannelBernoulli,
				LossRate:      faultLoss,
				CrashFraction: faultCrashFrac,
				CrashStart:    0.05,
				CrashEnd:      0.6,
				Protect:       []network.NodeID{env.Tree.Root()},
			}, env.Network.Len())
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("round %d fault plan: %w", p.round, err)
			}
			radio.FrameDeadline = 1.5
		}
		var a0 uint64
		if tr != nil {
			a0 = allocBytes()
		}
		id := tr.begin("desim", simID, p.round)
		var (
			res *desim.RoundResult
			err error
		)
		fc := *env.Scenario.Filter
		if p.cfg.Shards > 1 {
			res, err = desim.RunFullRoundDeltaSharded(env.Tree, f, env.Query, fc, radio, plan, p.ds, p.cfg.Shards, p.cfg.Workers, nil)
		} else {
			res, err = desim.RunFullRoundDelta(env.Tree, f, env.Query, fc, radio, plan, p.ds, nil)
		}
		tr.end(id)
		if tr != nil {
			out.desimAlloc = allocBytes() - a0
		}
		if err != nil {
			return nil, fmt.Errorf("round %d delta: %w", p.round, err)
		}
		id = tr.begin("monitor", simID, p.round)
		out.agedSt = p.aged.Apply(p.round, res.Delivered, nil)
		out.reports = p.aged.Reports()
		out.meanAge = p.aged.MeanAge(p.round)
		tr.end(id)
		out.desimRes = res
		out.sink = env.Network.Node(env.Tree.Root()).Value
		out.txBytes = res.Counters.TotalTxBytes()
	} else {
		if p.cfg.FaultEvery > 0 {
			return nil, fmt.Errorf("faulted analytic rounds are not replayed")
		}
		id := tr.begin("core", simID, p.round)
		res, err := core.Run(env.Tree, f, env.Query, *env.Scenario.Filter)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", p.round, err)
		}
		out.coreRes = res
		out.reports, out.sink = res.Reports, res.SinkValue
		out.txBytes = res.Counters.TotalTxBytes()
	}
	tr.end(simID)
	var a0 uint64
	if tr != nil {
		a0 = allocBytes()
	}
	id := tr.begin("contour.update", parent, p.round)
	out.m = p.inc.Update(out.reports, out.sink)
	tr.end(id)
	if tr != nil {
		out.contourAlloc = allocBytes() - a0
	}
	return out, nil
}

// rasterJSON encodes a raster exactly as the server's raster endpoint
// does (encoding/json, sorted map keys, trailing newline).
func rasterJSON(version int, ra *field.Raster) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]any{"version": version, "rows": ra.Rows, "cols": ra.Cols, "cells": ra.Cells})
	return buf.Bytes()
}

// checkOracle verifies the incremental map against a from-scratch
// contour.Reconstruct of the engine's arranged reports.
func (p *pipeline) checkOracle(out *roundOut) error {
	full := contour.Reconstruct(p.inc.Arranged(), p.env.Scenario.Levels, p.bounds, out.sink, p.opts)
	if err := contour.Equivalent(out.m, full, oracleSide, oracleSide); err != nil {
		return fmt.Errorf("round %d: incremental map differs from Reconstruct: %w", out.round, err)
	}
	if err := contour.EquivalentRaster(p.inc.Raster(oracleSide, oracleSide), full.RasterWorkers(oracleSide, oracleSide, 1)); err != nil {
		return fmt.Errorf("round %d: incremental raster differs from Reconstruct: %w", out.round, err)
	}
	return nil
}

// sameRound compares a replayed round with RoundSource.Next's.
func sameRound(out *roundOut, rd *sim.RoundData) error {
	switch {
	case rd.Round != out.round:
		return fmt.Errorf("round numbering: replay %d, source %d", out.round, rd.Round)
	case rd.Faulted != out.faulted:
		return fmt.Errorf("round %d: faulted replay=%v source=%v", out.round, out.faulted, rd.Faulted)
	case rd.SinkValue != out.sink:
		return fmt.Errorf("round %d: sink value replay=%v source=%v", out.round, out.sink, rd.SinkValue)
	case !reflect.DeepEqual(rd.Reports, out.reports):
		return fmt.Errorf("round %d: replay fed contour %d reports, RoundSource.Next produced %d (or contents differ)",
			out.round, len(out.reports), len(rd.Reports))
	case rd.TxBytes != 0 && rd.TxBytes != out.txBytes:
		return fmt.Errorf("round %d: tx bytes replay=%d source=%d", out.round, out.txBytes, rd.TxBytes)
	}
	return nil
}

// mismatchShare is the share of cells where two equal-shape rasters
// differ.
func mismatchShare(a, b *field.Raster) float64 {
	diff := 0
	for r := range a.Cells {
		for c := range a.Cells[r] {
			if a.Cells[r][c] != b.Cells[r][c] {
				diff++
			}
		}
	}
	return float64(diff) / float64(a.Rows*a.Cols)
}
