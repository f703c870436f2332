package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isomap/internal/field"
	"isomap/internal/sim"
)

// deltaRestoreConfig is a drifting delta deployment checkpointing every
// publish, with crash-faulted rounds 5, 10, 15, ...
func deltaRestoreConfig(dir string) Config {
	return Config{Deployments: 1, Nodes: 300, Seed: 27, FaultEvery: 5,
		TemporalField: "drift", FieldSpeed: 0.5, Delta: true, DeltaExpiry: 4,
		CheckpointDir: dir, CheckpointEvery: 1}
}

// readCheckpoint decodes deployment d0's checkpoint in dir.
func readCheckpoint(t *testing.T, dir string) checkpointDoc {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "d0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkpointDir writes doc as deployment d0's checkpoint into a fresh
// directory and returns it.
func checkpointDir(t *testing.T, doc checkpointDoc) string {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d0.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// arrangedJSON is the engine's arranged report order, encoded.
func arrangedJSON(t *testing.T, d *deployment) string {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	b, err := json.Marshal(d.inc.Arranged())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTemporalCheckpointRestoreFromState is the restore-from-state
// acceptance test. A delta deployment checkpointed after each of rounds
// 1-12 (crash-faulted rounds 5 and 10 included) is restored from every
// one of those checkpoints, at Shards 1 and 4. Each restore must serve
// exactly what the never-restarted run served at that round (ETag,
// polylines, raster JSON and PGM, classification) and then reproduce its
// next 10 rounds' reports byte for byte. The same checkpoint stripped of
// its source state — the pre-state format — must restore byte-identically
// through the replay.
func TestTemporalCheckpointRestoreFromState(t *testing.T) {
	const last, follow = 12, 10
	dir := t.TempDir()
	cfg := deltaRestoreConfig(dir)
	a, tsA := bootServer(t, cfg)
	da := a.deps["d0"]
	var (
		prints   = map[int]map[string]string{}
		docs     = map[int]checkpointDoc{}
		etags    = map[int]any{}
		arranged = map[int]string{}
	)
	for r := 1; r <= last+follow; r++ {
		out := postRound(t, tsA, "d0")
		etags[r], arranged[r] = out["etag"], arrangedJSON(t, da)
		if r <= last {
			prints[r] = fingerprint(t, tsA)
			docs[r] = readCheckpoint(t, dir)
		}
	}
	if !docs[5].Faulted || !docs[10].Faulted {
		t.Fatal("rounds 5 and 10 were not faulted")
	}
	for k := 1; k <= last; k++ {
		doc := docs[k]
		if doc.Source == nil || doc.Source.Round != k || len(doc.Source.Sent) == 0 || len(doc.Source.Belief) == 0 {
			t.Fatalf("round %d checkpoint carries no source state", k)
		}
		for _, shards := range []int{1, 4} {
			c := cfg
			c.Shards, c.CheckpointDir = shards, checkpointDir(t, doc)
			b, tsB := bootServer(t, c)
			samePrints(t, prints[k], fingerprint(t, tsB), "restore from state")
			db := b.deps["d0"]
			for r := k + 1; r <= k+follow; r++ {
				out := postRound(t, tsB, "d0")
				if out["etag"] != etags[r] || arrangedJSON(t, db) != arranged[r] {
					t.Fatalf("checkpoint %d shards %d: round %d diverged from the continuous run", k, shards, r)
				}
			}
		}
		legacy := doc
		legacy.Source = nil
		c := cfg
		c.CheckpointDir = checkpointDir(t, legacy)
		_, tsC := bootServer(t, c)
		samePrints(t, prints[k], fingerprint(t, tsC), "replay restore")
	}
}

// countingField counts field snapshots taken: every simulated round
// senses exactly one.
type countingField struct {
	field.DynamicField
	n atomic.Int64
}

func (c *countingField) At(t float64) field.Field {
	c.n.Add(1)
	return c.DynamicField.At(t)
}

// TestCheckpointRestoreSimulatesNoRound: restoring a delta deployment
// from a checkpoint with source state senses the field zero times — no
// round is simulated, however late the checkpoint — while the legacy
// stateless checkpoint replays every round since boot.
func TestCheckpointRestoreSimulatesNoRound(t *testing.T) {
	dir := t.TempDir()
	cfg := deltaRestoreConfig(dir)
	_, ts := bootServer(t, cfg)
	docs := map[int]checkpointDoc{}
	for r := 1; r <= 40; r++ {
		postRound(t, ts, "d0")
		if r == 5 || r == 40 {
			docs[r] = readCheckpoint(t, dir)
		}
	}
	for k, doc := range docs {
		legacy := doc
		legacy.Source = nil
		for _, tc := range []struct {
			doc  checkpointDoc
			want int64
		}{{doc, 0}, {legacy, int64(k)}} {
			c := cfg
			c.CheckpointDir = ""
			s, err := NewServer(c)
			if err != nil {
				t.Fatal(err)
			}
			d := s.deps["d0"]
			probe := &countingField{DynamicField: d.src.Dyn}
			d.src.Dyn = probe
			s.cfg.CheckpointDir = checkpointDir(t, tc.doc)
			if err := s.restore(d); err != nil {
				t.Fatal(err)
			}
			if d.version != k || d.src.Round() != k {
				t.Fatalf("checkpoint %d: restored version %d round %d", k, d.version, d.src.Round())
			}
			if got := probe.n.Load(); got != tc.want {
				t.Fatalf("checkpoint %d (source state %t): restore simulated %d rounds, want %d",
					k, tc.doc.Source != nil, got, tc.want)
			}
		}
	}
}

// TestCheckpointRestoreRejectsBadSourceState: a checkpoint whose source
// state the deployment could not have written is counted in
// restore_errors, logged, and gives a cold start — never a panic, never
// a partially resumed source.
func TestCheckpointRestoreRejectsBadSourceState(t *testing.T) {
	dir := t.TempDir()
	cfg := deltaRestoreConfig(dir)
	s, ts := bootServer(t, cfg)
	for r := 0; r < 4; r++ {
		postRound(t, ts, "d0")
	}
	good := readCheckpoint(t, dir)
	levels := s.deps["d0"].levels.Count()
	// JSON cannot spell NaN or Inf: a non-finite value reaches restore as
	// an out-of-range literal, written here in place of a sentinel.
	const sentinel = 12345.5
	for name, mutate := range map[string]func(*sim.SourceState){
		"node count":          func(s *sim.SourceState) { s.Nodes = 299 },
		"sent source":         func(s *sim.SourceState) { s.Sent[0].Source = 300 },
		"negative source":     func(s *sim.SourceState) { s.Belief[0].Source = -3 },
		"belief source":       func(s *sim.SourceState) { s.Belief[len(s.Belief)-1].Source = 1 << 30 },
		"sent level":          func(s *sim.SourceState) { s.Sent[0].LevelIndex = levels },
		"belief level":        func(s *sim.SourceState) { s.Belief[0].LevelIndex = -1 },
		"non-finite sent":     func(s *sim.SourceState) { s.Sent[0].Grad.X = sentinel },
		"non-finite belief":   func(s *sim.SourceState) { s.Belief[0].Level = sentinel },
		"refresh after round": func(s *sim.SourceState) { s.Belief[0].Refreshed = s.Round + 1 },
		"round mismatch":      func(s *sim.SourceState) { s.Round-- },
		"retirement":          func(s *sim.SourceState) { s.Sent[0].Retire = true },
		"unsorted":            func(s *sim.SourceState) { s.Sent[0], s.Sent[1] = s.Sent[1], s.Sent[0] },
	} {
		doc := good
		var st sim.SourceState
		if err := json.Unmarshal(mustJSON(t, good.Source), &st); err != nil {
			t.Fatal(err)
		}
		mutate(&st)
		doc.Source = &st
		b := strings.Replace(string(mustJSON(t, doc)), "12345.5", "1e999", 1)
		c := cfg
		c.CheckpointDir = t.TempDir()
		if err := os.WriteFile(filepath.Join(c.CheckpointDir, "d0.json"), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
		errsBefore := counter("restore_errors")
		logged := false
		c.Logf = func(string, ...any) { logged = true }
		srv, err := NewServer(c)
		if err != nil {
			t.Fatalf("%s: bad source state failed the boot: %v", name, err)
		}
		d := srv.deps["d0"]
		if counter("restore_errors") != errsBefore+1 || !logged {
			t.Errorf("%s: not counted and logged", name)
		}
		if d.snap.Load() != nil || d.version != 0 || d.src.Round() != 0 {
			t.Fatalf("%s: not a cold start (version %d, round %d)", name, d.version, d.src.Round())
		}
		if _, err := srv.advance(d); err != nil {
			t.Fatalf("%s: cold-started deployment cannot advance: %v", name, err)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post sends one POST /rounds (body empty for a simulated round) from
// any goroutine and decodes the reply.
func post(ts *httptest.Server, body string) (map[string]any, error) {
	resp, err := http.Post(ts.URL+"/v1/deployments/d0/rounds", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out map[string]any
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// TestRoundOrderConcurrentPosts: concurrent rounds on a fresh server
// publish in round order — every snapshot's round label matches its
// version — and the last checkpoint (round counter, source state,
// arranged reports) equals a sequential run's. A pushed batch arriving
// while a simulated round is held mid-simulation must wait for that
// round's publish, not overtake it.
func TestRoundOrderConcurrentPosts(t *testing.T) {
	const posts = 8
	ref, tsRef := bootServer(t, deltaRestoreConfig(t.TempDir()))
	rd, err := ref.deps["d0"].src.Next()
	if err != nil {
		t.Fatal(err)
	}
	pushed := string(mustJSON(t, ingestBody{Reports: rd.Reports, SinkValue: rd.SinkValue}))
	if err := ref.deps["d0"].src.SeekRound(0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, ts := bootServer(t, deltaRestoreConfig(dir))
	d := s.deps["d0"]
	probe := &blockingField{DynamicField: d.src.Dyn, entered: make(chan struct{}), release: make(chan struct{})}
	d.src.Dyn = probe
	probe.arm()
	var (
		wg   sync.WaitGroup
		outs = make([]map[string]any, posts+2)
		errs = make([]error, posts+2)
	)
	wg.Add(1)
	go func() { defer wg.Done(); outs[0], errs[0] = post(ts, "") }()
	<-probe.entered
	wg.Add(1)
	go func() { defer wg.Done(); outs[1], errs[1] = post(ts, pushed) }()
	// Give the pushed batch time to reach the lock; the assertions below
	// hold however far it got.
	time.Sleep(50 * time.Millisecond)
	close(probe.release)
	wg.Wait()
	for i := 2; i < len(outs); i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); outs[i], errs[i] = post(ts, "") }(i)
	}
	wg.Wait()
	// The pushed batch takes version 2 as its round label, so simulated
	// round r publishes as version r+1 from then on.
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("POST %d: %v", i, errs[i])
		}
		shift := 1.0
		if i < 2 {
			shift = 0
		}
		if out["round"].(float64)+shift != out["version"].(float64) {
			t.Fatalf("POST %d published round %v as version %v", i, out["round"], out["version"])
		}
	}
	if outs[0]["version"] != 1.0 || outs[1]["version"] != 2.0 {
		t.Fatalf("pushed batch overtook the held round: versions %v and %v", outs[0]["version"], outs[1]["version"])
	}

	postRound(t, tsRef, "d0")
	if _, err := post(tsRef, pushed); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < posts; r++ {
		postRound(t, tsRef, "d0")
	}
	got, want := readCheckpoint(t, dir), readCheckpoint(t, ref.cfg.CheckpointDir)
	if got.Round != posts+1 || got.Version != posts+2 {
		t.Fatalf("last checkpoint at round %d version %d, want %d and %d", got.Round, got.Version, posts+1, posts+2)
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, want)) {
		t.Fatal("last checkpoint differs from the sequential run's: its round, source state and arranged reports disagree")
	}
}

// blockingField parks the first At call after arm() until release is
// closed, holding a round mid-simulation.
type blockingField struct {
	field.DynamicField
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingField) arm() { b.armed.Store(true) }

func (b *blockingField) At(t float64) field.Field {
	if b.armed.CompareAndSwap(true, false) {
		close(b.entered)
		<-b.release
	}
	return b.DynamicField.At(t)
}

// TestRoundLockRasterMissDuringRound: a raster miss that reads the
// engine completes while a round is held mid-simulation — the engine
// lock is not held across the packet simulation.
func TestRoundLockRasterMissDuringRound(t *testing.T) {
	cfg := deltaRestoreConfig("")
	s, ts := bootServer(t, cfg)
	d := s.deps["d0"]
	probe := &blockingField{DynamicField: d.src.Dyn, entered: make(chan struct{}), release: make(chan struct{})}
	d.src.Dyn = probe
	postRound(t, ts, "d0")
	probe.arm()
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		if resp, err := http.Post(ts.URL+"/v1/deployments/d0/rounds", "application/json", nil); err == nil {
			resp.Body.Close()
		}
	}()
	<-probe.entered
	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/deployments/d0/raster?rows=37&cols=41")
		if err != nil {
			got <- 0
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	select {
	case code := <-got:
		if code != 200 {
			t.Errorf("raster miss during a round: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Error("raster miss waited on the round's simulation")
	}
	close(probe.release)
	<-posted
	if v := d.snap.Load().version; v != 2 {
		t.Fatalf("held round published version %d, want 2", v)
	}
}
