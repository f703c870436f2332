package desim

import (
	"math"
	"strings"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/routing"
)

func fullRoundSetup(t *testing.T, n int) (*routing.Tree, field.Field, core.Query) {
	t.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	// Radio scales with node spacing to keep the graph connected.
	radio := 1.5 * 50 / math.Sqrt(float64(n))
	nw, err := network.DeployUniform(n, f, radio, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewQuery(field.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tree, f, q
}

func TestRunFullRound(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 900)
	res, err := RunRound(RoundSpec{Tree: tree, Field: f, Query: q, Filter: core.DefaultFilterConfig(), Radio: DefaultRadioConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// The query flood reaches (almost) every connected node; broadcast
	// flooding has no retransmission, so collisions can shadow a few.
	if res.QueryReached < tree.ReachableCount()*85/100 {
		t.Errorf("query reached %d of %d", res.QueryReached, tree.ReachableCount())
	}
	if res.IsolineNodes == 0 || res.Generated == 0 {
		t.Fatalf("no isoline nodes detected: %+v", res)
	}
	if len(res.Delivered) == 0 {
		t.Fatal("no reports delivered")
	}
	if len(res.Delivered) > res.Generated {
		t.Errorf("delivered %d > generated %d", len(res.Delivered), res.Generated)
	}
	// Phases are ordered in time.
	if res.QuerySeconds <= 0 || res.MeasureSeconds < res.QuerySeconds ||
		res.TotalSeconds < res.MeasureSeconds {
		t.Errorf("phase times out of order: %+v", res)
	}
	// The structural engine's detection count is the reference: the
	// packet-level round finds a comparable population (probe replies can
	// be lost, so slightly fewer is expected).
	nw := tree.Network()
	nw.Sense(f)
	structural := core.DetectIsolineNodes(nw, q, nil)
	if res.Generated < len(structural)/2 || res.Generated > len(structural)+5 {
		t.Errorf("packet-level generated %d far from structural %d", res.Generated, len(structural))
	}
}

// TestRunRoundRejects pins the round's input validation and the checks
// the deprecated delta wrappers add on top of it.
func TestRunRoundRejects(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 100)
	fc, cfg := core.DefaultFilterConfig(), DefaultRadioConfig()
	if _, err := RunRound(RoundSpec{Radio: cfg}); err == nil {
		t.Error("want error for nil tree")
	}
	ds, err := NewDeltaState(tree.Network().Len()+1, DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRound(RoundSpec{Tree: tree, Field: f, Query: q, Filter: fc, Radio: cfg, Delta: ds}); err == nil ||
		!strings.Contains(err.Error(), "delta state built for") {
		t.Errorf("want delta node-count mismatch error, got %v", err)
	}
	if _, err := RunFullRoundDelta(tree, f, q, fc, cfg, nil, nil, nil); err == nil {
		t.Error("want error for a delta round without DeltaState")
	}
	ds, err = NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFullRoundDeltaSharded(tree, f, q, fc, cfg, nil, ds, 0, 1, nil); err == nil {
		t.Error("want error for shard count 0")
	}
	if _, err := RunFullRoundDeltaSharded(tree, f, q, fc, cfg, nil, nil, 4, 1, nil); err == nil {
		t.Error("want error for a sharded delta round without DeltaState")
	}
	if _, err := RunFullRoundDeltaSharded(nil, f, q, fc, cfg, nil, ds, 4, 1, nil); err == nil {
		t.Error("want error for nil tree")
	}
}

func TestRunFullRoundDeterministic(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	r1, err := RunRound(RoundSpec{Tree: tree, Field: f, Query: q, Filter: core.DefaultFilterConfig(), Radio: DefaultRadioConfig()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunRound(RoundSpec{Tree: tree, Field: f, Query: q, Filter: core.DefaultFilterConfig(), Radio: DefaultRadioConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Generated != r2.Generated || len(r1.Delivered) != len(r2.Delivered) ||
		r1.TotalSeconds != r2.TotalSeconds {
		t.Errorf("non-deterministic rounds: %+v vs %+v", r1, r2)
	}
}
