package desim

import (
	"math"
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
)

// TestDeltaStateExportImport pins the checkpoint form of the protocol
// memory: Export is sorted by (source, levelIndex) and round-trips through
// Import, and a state imported mid-run continues the drifting round
// sequence exactly as the original state does — delivered batches,
// tallies and radio stats — on the sequential and the sharded engine.
func TestDeltaStateExportImport(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Network().Len()
	// warmed runs rounds 1-3 into a fresh state.
	warmed := func() *DeltaState {
		ds, err := NewDeltaState(n, DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 3; round++ {
			if _, err := RunRound(RoundSpec{Tree: tree, Field: dyn.At(float64(round) * 0.5), Query: q, Filter: fc, Radio: cfg, Delta: ds}); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	sent := warmed().Export()
	for i := 1; i < len(sent); i++ {
		if !core.SourceLevelLess(sent[i-1], sent[i]) {
			t.Fatalf("export not strictly sorted at %d", i)
		}
	}
	for _, shards := range []int{1, 4} {
		cont := warmed()
		if len(sent) == 0 || len(sent) != cont.Tracked() {
			t.Fatalf("export holds %d reports, state tracks %d", len(sent), cont.Tracked())
		}
		imp, err := NewDeltaState(n, DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := imp.Import(sent); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(imp.Export(), sent) {
			t.Fatal("Export after Import differs from the imported list")
		}
		for round := 4; round <= 6; round++ {
			snap := dyn.At(float64(round) * 0.5)
			want, err := RunRound(RoundSpec{Tree: tree, Field: snap, Query: q, Filter: fc, Radio: cfg, Delta: cont})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunRound(RoundSpec{Tree: tree, Field: snap, Query: q, Filter: fc, Radio: cfg, Delta: imp, Engine: gridEngine(tree, shards, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Delivered, want.Delivered) || got.Crossings != want.Crossings ||
				got.Suppressed != want.Suppressed || got.Retired != want.Retired || got.Radio != want.Radio {
				t.Fatalf("shards=%d round %d: imported state diverged from the continuous one", shards, round)
			}
		}
		if !reflect.DeepEqual(imp.Export(), cont.Export()) {
			t.Fatalf("shards=%d: states diverged after three more rounds", shards)
		}
	}
}

// TestDeltaStateImportRejects: Import refuses every list Export could not
// have produced and leaves the state untouched.
func TestDeltaStateImportRejects(t *testing.T) {
	rep := func(src, li int) core.Report {
		return core.Report{Level: float64(li), LevelIndex: li, Source: network.NodeID(src),
			Pos: geom.Point{X: 1, Y: 2}, Grad: geom.Vec{X: 1}}
	}
	good := []core.Report{rep(1, 0), rep(1, 2), rep(4, 1)}
	nan := rep(5, 0)
	nan.Grad.Y = math.NaN()
	inf := rep(5, 0)
	inf.Pos.X = math.Inf(-1)
	retire := rep(5, 0)
	retire.Retire = true
	for name, sent := range map[string][]core.Report{
		"source too large": {rep(10, 0)},
		"negative source":  {rep(-1, 0)},
		"negative level":   {rep(1, -1)},
		"retirement":       {retire},
		"NaN gradient":     {nan},
		"infinite pos":     {inf},
		"duplicate":        {rep(1, 0), rep(1, 0)},
		"unsorted sources": {rep(4, 0), rep(1, 0)},
		"unsorted levels":  {rep(1, 2), rep(1, 0)},
	} {
		ds, err := NewDeltaState(10, DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Import(good); err != nil {
			t.Fatal(err)
		}
		if err := ds.Import(sent); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(ds.Export(), good) {
			t.Errorf("%s: rejected import changed the state", name)
		}
	}
	ds, err := NewDeltaState(10, DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Import(good); err != nil {
		t.Fatal(err)
	}
	if err := ds.Import(nil); err != nil || ds.Tracked() != 0 {
		t.Fatalf("empty import: err=%v tracked=%d", err, ds.Tracked())
	}
}
