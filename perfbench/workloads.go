package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"isomap/internal/serve"
)

// Fixed workload parameters; changing any of them is a benchmark change.
const (
	churnRounds = 64                   // rounds per churn-dashboard pass
	deltaWarm   = 10                   // delta-packet rounds before the measured ones
	deltaWindow = 40                   // delta-packet rounds the gate's figures cover
	restoreAt   = 5                    // checkpoint round the restore boots from
	pollThink   = 5 * time.Millisecond // delta-packet poller's pause between replies
	pollRaster  = 20                   // its every pollRaster-th read is the raster
	setupReps   = 31                   // set-ups per run; setup_s is their median
	restoreReps = 9                    // restores per run; restore_s is their median
	probeReps   = 75                   // restore-probe boots per run (analytic workloads)
	heapEvery   = 10                   // delta-packet rounds between heap readings
	pollCap     = 1 << 14              // samples preallocated for the poller
	fixtureSeed = 1                    // serve.Config.Seed of every workload
)

// workload is one traffic mix against an in-process server.
type workload struct {
	name string
	cfg  serve.Config
	// checkpoint gives every server of the workload its own checkpoint
	// directory.
	checkpoint bool
	load       func(wd string, w *workload, seed int64, dur time.Duration) (*loadResult, error)
	// Rounds warm+1 to warm+window of a server are the measured ones:
	// the gate's figures (map_error_pct, tx_bytes_per_round and the
	// workload properties) average over them. The per-layer replay runs
	// warm+layerRounds rounds and reports the last layerRounds.
	warm, window, layerRounds int
}

// measured reports whether round r of a server is one the figures cover.
func (w *workload) measured(r int) bool { return r > w.warm && r <= w.warm+w.window }

// The deployments are a fixed fixture (Config.Seed = fixtureSeed): the
// seed drives the traffic, not the node placement. Placement alone moves
// map_error_pct by about a fifth between deployments, more than the
// benchmark's bounds allow between runs.
//
// delta-packet's first deltaWarm rounds are not measured: the aged map
// retires no report before round DeltaExpiry+1, and the first rounds of
// a fresh DeltaState send full reports rather than deltas. Ten rounds
// also cover two fault cycles.
var workloads = []*workload{
	{name: "churn-dashboard", load: loadChurn, window: churnRounds, layerRounds: churnRounds,
		cfg: serve.Config{Deployments: 1, Nodes: 2500, Seed: fixtureSeed, Workers: 2}},
	{name: "delta-packet", load: loadDelta, warm: deltaWarm, window: deltaWindow, layerRounds: 20, checkpoint: true,
		cfg: serve.Config{Deployments: 1, Nodes: 4000, Seed: fixtureSeed, Workers: 2, Delta: true, DeltaExpiry: 8,
			TemporalField: "drift", FieldSpeed: 0.2, FaultEvery: 5, Shards: 4}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadResult is what the untraced load phase measured.
type loadResult struct {
	rounds  []sample // timed POST rounds
	queries []sample // timed GETs
	all     []sample
	bodies  *bodyStore
	setup   []float64 // seconds
	restore []float64 // seconds
	heapMB  []float64 // live heap readings; heap_mb is their median
	gcPct   float64
	vars    map[string]int64 // /debug/vars deltas over the timed phase
	// replay is how many rounds of each deployment the output gate
	// replays: every version the load could have stored.
	replay []int
}

// prop is a workload property later claims cite.
type prop struct {
	name  string
	value string
}

func depPath(dep int, rest string) string { return fmt.Sprintf("/v1/deployments/d%d%s", dep, rest) }

// The six dashboard reads: hot keys 0-3 are the level polylines.
const (
	hotRaster = 4 // 100x100 JSON raster
	hotPGM    = 5 // 64x64 PGM raster
	hotKeys   = 6
)

func hotPath(dep, i int) (string, kind) {
	switch i {
	case hotRaster:
		return depPath(dep, fmt.Sprintf("/raster?rows=%d&cols=%d", rasterSide, rasterSide)), kindRaster
	case hotPGM:
		return depPath(dep, fmt.Sprintf("/raster?rows=%d&cols=%d&format=pgm", pgmSide, pgmSide)), kindPGM
	}
	return depPath(dep, fmt.Sprintf("/levels/%d/polyline", i)), kindPoly
}

// rasterSink stores every served 100x100 JSON raster for the gate.
func rasterSink(b *bodyStore) bodySink {
	return func(r request, version int, body []byte) {
		if r.kind == kindRaster {
			b.add(r.dep, version, body)
		}
	}
}

// loadChurn runs closed-loop dashboard passes: POST a round, then read
// the new version's rasters and polylines in a seeded order, churnRounds
// rounds per fresh server, until dur has passed.
func loadChurn(wd string, w *workload, seed int64, dur time.Duration) (*loadResult, error) {
	res := &loadResult{bodies: newBodyStore(), replay: []int{churnRounds}}
	rng := rand.New(rand.NewSource(seed)) // the order of each round's reads
	var err error
	if res.setup, err = measureSetup(wd, w); err != nil {
		return nil, err
	}
	var vars0 map[string]int64
	cpu0 := readCPU()
	sink := rasterSink(res.bodies)
	origin := time.Now()
	for pass := 0; pass == 0 || time.Since(origin) < dur; pass++ {
		srv, _, err := newServer(wd, w)
		if err != nil {
			return nil, err
		}
		if vars0 == nil {
			if vars0, err = scrapeVars(srv); err != nil {
				return nil, err
			}
		}
		ep, err := listen(srv)
		if err != nil {
			return nil, err
		}
		c := newClient(ep.base)
		for r := 1; r <= churnRounds; r++ {
			res.rounds = append(res.rounds, send(c, origin, request{kind: kindRound, path: depPath(0, "/rounds")}, nil))
			for _, i := range rng.Perm(hotKeys) {
				path, k := hotPath(0, i)
				res.queries = append(res.queries, send(c, origin, request{kind: k, path: path}, sink))
			}
		}
		c.close()
		res.heapMB = append(res.heapMB, liveHeapMB(res.rounds, res.queries))
		v1, err := scrapeVars(srv)
		ep.close()
		if err != nil {
			return nil, err
		}
		// The server counters are process-wide, so the delta spans every
		// pass; only ratios of them are reported.
		res.vars = varsDelta(vars0, v1)
	}
	res.gcPct = gcPct(cpu0, readCPU())
	res.all = append(append([]sample(nil), res.rounds...), res.queries...)
	if res.restore, err = restoreProbe(wd, w, res.bodies); err != nil {
		return nil, err
	}
	return res, nil
}

// loadDelta runs one long-lived server. Its first w.warm rounds are
// untimed; the checkpoint after round restoreAt is copied on the way.
// Then closed-loop POST rounds run beside the dashboard poller until dur
// has passed and at least w.window rounds were timed, with a live-heap
// reading after every heapEvery-th. After the timed phase servers boot
// from restoreReps copies of the checkpoint (restore_s).
func loadDelta(wd string, w *workload, seed int64, dur time.Duration) (*loadResult, error) {
	res := &loadResult{bodies: newBodyStore()}
	rng := rand.New(rand.NewSource(seed)) // the poller's phase
	var err error
	if res.setup, err = measureSetup(wd, w); err != nil {
		return nil, err
	}
	srv, dir, err := newServer(wd, w)
	if err != nil {
		return nil, err
	}
	ep, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer ep.close()
	c := newClient(ep.base)
	defer c.close()
	var cp string // the checkpoint copy restore_s boots from
	for r := 1; r <= w.warm; r++ {
		if err := postRound(c, 0); err != nil {
			return nil, err
		}
		if r == restoreAt {
			if cp, err = copyDir(wd, dir); err != nil {
				return nil, err
			}
		}
	}
	vars0, err := scrapeVars(srv)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPU()
	sink := rasterSink(res.bodies)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// The poller's buffer has a fixed capacity, so the heap readings
	// taken while it runs count it the same way on every run.
	polled := make([]sample, 0, pollCap)
	origin := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.queries = poll(ep.base, origin, stop, sink, rng, polled)
	}()
	served := w.warm
	for n := 1; n <= w.window || time.Since(origin) < dur; n++ {
		s := send(c, origin, request{kind: kindRound, path: depPath(0, "/rounds")}, nil)
		res.rounds = append(res.rounds, s)
		if s.ok {
			served++
		}
		if n%heapEvery == 0 {
			res.heapMB = append(res.heapMB, liveHeapMB(res.rounds, polled))
		}
	}
	close(stop)
	wg.Wait()
	res.gcPct = gcPct(cpu0, readCPU())
	v1, err := scrapeVars(srv)
	if err != nil {
		return nil, err
	}
	res.vars = varsDelta(vars0, v1)
	res.replay = []int{served}
	for i := 0; i < restoreReps; i++ {
		d, err := copyDir(wd, cp)
		if err != nil {
			return nil, err
		}
		sec, err := bootRestore(w.cfg, d, res.bodies)
		if err != nil {
			return nil, err
		}
		res.restore = append(res.restore, sec)
	}
	res.all = append(append([]sample(nil), res.rounds...), res.queries...)
	return res, nil
}

// poll is the delta-packet dashboard poller, a closed loop: it reads the
// four level polylines in turn (with If-None-Match), and the JSON raster
// in place of every pollRaster-th read, pausing pollThink between
// replies, until stop closes. It appends its samples to out and returns
// it. The seed sets its first pause. It is a
// closed loop because each raster miss waits for the round in flight: an
// open-loop poller on one connection falls behind by a whole round per
// version, and how far behind it ends up depends on its phase against
// the round loop.
func poll(base string, origin time.Time, stop <-chan struct{}, sink bodySink, rng *rand.Rand, out []sample) []sample {
	c := newClient(base)
	defer c.close()
	timer := time.NewTimer(time.Duration(rng.Int63n(int64(pollThink))))
	defer timer.Stop()
	for i := 1; ; i++ {
		select {
		case <-stop:
			return out
		case <-timer.C:
		}
		key := i % hotRaster
		if i%pollRaster == 0 {
			key = hotRaster
		}
		path, k := hotPath(0, key)
		out = append(out, send(c, origin, request{kind: k, path: path, inm: k == kindPoly}, sink))
		timer.Reset(pollThink)
	}
}
