package main

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"isomap/internal/contour"
	"isomap/internal/field"
	"isomap/internal/sim"
)

// bodyStore keeps the SHA-256 of the first served 100x100 JSON raster
// per (deployment, version) and counts later bodies for the same version
// that differ: every pass, restart and poller must see identical bytes
// per version. It holds digests, not bodies, so the benchmark's own
// memory stays out of heap_mb.
type bodyStore struct {
	mu         sync.Mutex
	first      map[[2]int][sha256.Size]byte
	mismatches int
}

func newBodyStore() *bodyStore { return &bodyStore{first: map[[2]int][sha256.Size]byte{}} }

func (b *bodyStore) add(dep, version int, body []byte) {
	if version <= 0 {
		return
	}
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	k := [2]int{dep, version}
	if prev, ok := b.first[k]; !ok {
		b.first[k] = sum
	} else if prev != sum {
		b.mismatches++
	}
}

// matches reports whether a body was stored for (dep, version), and if
// so whether body has its digest.
func (b *bodyStore) matches(dep, version int, body []byte) (stored, equal bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum, ok := b.first[[2]int{dep, version}]
	return ok, ok && sum == sha256.Sum256(body)
}

func (b *bodyStore) mismatched() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mismatches
}

// gateResult holds what the output gate measured on the way, over the
// workload's measured rounds (see workload.measured).
type gateResult struct {
	checked         int     // served raster versions compared byte for byte
	mapErrorPct     float64 // mean over the measured rounds
	txBytesPerRound float64
	faultedShare    float64
	suppressRatio   float64 // withheld / (withheld + transmitted) delta reports
	cellsReusedPct  float64
}

// runGate replays rounds[dep] rounds of each deployment of w and fails
// on the first mismatch: up to the last measured round the replay must
// feed contour exactly what RoundSource.Next produces, the incremental
// map must equal a full Reconstruct, and every served raster the load
// stored must equal the replay's bytes for that version. Every replayed
// version is thereby the map the server published. (Past the measured
// rounds the served bytes alone tie the replay to the server's
// RoundSource; simulating each round twice there would double the gate's
// time on delta-packet.) The figures it returns cover the measured
// rounds only, a fixed range, so they do not depend on how many rounds a
// run reached.
func runGate(w *workload, rounds []int, bodies *bodyStore) (*gateResult, error) {
	if n := bodies.mismatched(); n > 0 {
		return nil, fmt.Errorf("output gate: %d served rasters differ from an earlier body of the same version", n)
	}
	cfg := w.cfg
	g := &gateResult{}
	var errSum, tx float64
	var nRounds, faulted, suppressed, sent, reused, recomputed int
	for dep, n := range rounds {
		if n < w.warm+w.window {
			return nil, fmt.Errorf("output gate, deployment %d: %d rounds served, the measured rounds end at %d", dep, n, w.warm+w.window)
		}
		p, err := newPipeline(cfg, dep, nil)
		if err != nil {
			return nil, err
		}
		env, dyn, err := buildEnv(cfg, dep)
		if err != nil {
			return nil, err
		}
		src := &sim.RoundSource{Env: env, Dyn: dyn, FaultEvery: cfg.FaultEvery, Shards: cfg.Shards,
			Workers: cfg.Workers, Delta: cfg.Delta, DeltaExpiry: cfg.DeltaExpiry}
		var st0 contour.IncrementalStats
		for r := 1; r <= n; r++ {
			out, err := p.step(nil, -1)
			if err != nil {
				return nil, err
			}
			if r <= w.warm+w.window {
				rd, err := src.Next()
				if err != nil {
					return nil, fmt.Errorf("reference round %d: %w", r, err)
				}
				if err := sameRound(out, rd); err != nil {
					return nil, fmt.Errorf("output gate, deployment %d: %w", dep, err)
				}
			}
			if err := p.checkOracle(out); err != nil {
				return nil, fmt.Errorf("output gate, deployment %d: %w", dep, err)
			}
			ra := p.inc.Raster(rasterSide, rasterSide)
			stored, equal := bodies.matches(dep, r, rasterJSON(r, ra))
			if stored && !equal {
				return nil, fmt.Errorf("output gate, deployment %d: served raster at version %d differs from the replay's bytes", dep, r)
			}
			if stored {
				g.checked++
			}
			if r == w.warm {
				st0 = p.inc.Stats()
			}
			if !w.measured(r) {
				continue
			}
			nRounds++
			tx += float64(out.txBytes)
			if out.faulted {
				faulted++
			}
			if out.desimRes != nil {
				suppressed += out.desimRes.Suppressed
				sent += out.desimRes.Crossings
			}
			truth := field.ClassifyRaster(p.dyn.At(out.t), p.env.Scenario.Levels, rasterSide, rasterSide)
			errSum += mismatchShare(ra, truth)
			if r == w.warm+w.window {
				st := p.inc.Stats()
				reused += st.CellsReused - st0.CellsReused
				recomputed += st.CellsRecomputed - st0.CellsRecomputed
			}
		}
	}
	if g.checked == 0 {
		return nil, fmt.Errorf("output gate: the load stored no served raster to check")
	}
	g.mapErrorPct = 100 * errSum / float64(nRounds)
	g.txBytesPerRound = tx / float64(nRounds)
	g.faultedShare = float64(faulted) / float64(nRounds)
	g.suppressRatio = ratio(float64(suppressed), float64(suppressed+sent))
	g.cellsReusedPct = 100 * ratio(float64(reused), float64(reused+recomputed))
	return g, nil
}
