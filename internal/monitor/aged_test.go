package monitor

import (
	"math"
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/network"
	"isomap/internal/trace"
)

func agedReport(source network.NodeID, level int, v float64) core.Report {
	return core.Report{
		Level: v, LevelIndex: level, Source: source,
		Pos:  geom.Point{X: float64(source), Y: float64(level)},
		Grad: geom.Vec{X: 1},
	}
}

func retireReport(source network.NodeID, level int) core.Report {
	r := agedReport(source, level, 0)
	r.Retire = true
	return r
}

func TestNewAgedMapValidation(t *testing.T) {
	if _, err := NewAgedMap(AgedConfig{ExpiryRounds: -1}); err == nil {
		t.Error("accepted negative expiry")
	}
	m, err := NewAgedMap(AgedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 || m.MeanAge(5) != 0 {
		t.Errorf("fresh map: len=%d meanAge=%g", m.Len(), m.MeanAge(5))
	}
}

// TestAgedMapUpsertRetire pins the belief semantics: data reports upsert
// their (source, level) entry, retirements withdraw it, and Reports()
// returns the deterministic (source, level) order.
func TestAgedMapUpsertRetire(t *testing.T) {
	m, err := NewAgedMap(AgedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Apply(1, []core.Report{
		agedReport(9, 0, 6), agedReport(3, 1, 8), agedReport(3, 0, 6),
	}, nil)
	if st.Fresh != 3 || st.Size != 3 {
		t.Fatalf("round 1 stats: %+v", st)
	}
	// Refresh one entry with a moved position, retire another, retire a
	// never-tracked entry (lost report; must be a no-op, not a count).
	moved := agedReport(3, 0, 6)
	moved.Pos.X = 99
	st = m.Apply(2, []core.Report{moved, retireReport(9, 0), retireReport(100, 2)}, nil)
	if st.Fresh != 1 || st.Retired != 1 || st.Size != 2 {
		t.Fatalf("round 2 stats: %+v", st)
	}
	got := m.Reports()
	want := []core.Report{moved, agedReport(3, 1, 8)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("belief = %+v, want %+v", got, want)
	}
	if age := m.MeanAge(2); age != 0.5 {
		t.Errorf("mean age = %g, want 0.5 (one fresh, one from round 1)", age)
	}
	if ages := m.Ages(2); ages[3] != 1 {
		t.Errorf("source 3 oldest age = %d, want 1", ages[3])
	}
	m.Reset()
	if m.Len() != 0 {
		t.Errorf("reset left %d entries", m.Len())
	}
}

// TestAgedMapExpiry: entries not refreshed within ExpiryRounds are
// dropped, in deterministic order, emitting one KindAgeExpire event each;
// with aging disabled nothing ever expires.
func TestAgedMapExpiry(t *testing.T) {
	m, err := NewAgedMap(AgedConfig{ExpiryRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(1, []core.Report{agedReport(5, 0, 6), agedReport(2, 1, 8)}, nil)
	// Round 2 refreshes only source 2; round 3 is empty. After round 3 the
	// source-5 entry (age 2) still survives; after round 4 it expires.
	m.Apply(2, []core.Report{agedReport(2, 1, 8)}, nil)
	if st := m.Apply(3, nil, nil); st.Expired != 0 || st.Size != 2 {
		t.Fatalf("round 3 stats: %+v", st)
	}
	rec := trace.NewRecorder(16)
	st := m.Apply(4, nil, rec)
	if st.Expired != 1 || st.Size != 1 {
		t.Fatalf("round 4 stats: %+v", st)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != trace.KindAgeExpire || evs[0].Node != 5 || evs[0].Arg != 0 {
		t.Fatalf("expiry events = %+v", evs)
	}
	// Aging disabled: the same sequence keeps both entries forever.
	forever, err := NewAgedMap(AgedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forever.Apply(1, []core.Report{agedReport(5, 0, 6), agedReport(2, 1, 8)}, nil)
	if st := forever.Apply(1000, nil, nil); st.Expired != 0 || st.Size != 2 {
		t.Fatalf("unaged map expired entries: %+v", st)
	}
}

// TestAgedMapExpiryOrder: expiry iteration must be sorted (source, then
// level) regardless of map iteration order, so traces and stats are
// replay-stable.
func TestAgedMapExpiryOrder(t *testing.T) {
	m, err := NewAgedMap(AgedConfig{ExpiryRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	var batch []core.Report
	for s := 20; s >= 1; s-- {
		batch = append(batch, agedReport(network.NodeID(s), s%3, 6))
	}
	m.Apply(1, batch, nil)
	rec := trace.NewRecorder(64)
	st := m.Apply(3, nil, rec)
	if st.Expired != 20 {
		t.Fatalf("expired %d of 20", st.Expired)
	}
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Node < evs[i-1].Node {
			t.Fatalf("expiry order not sorted: node %d after %d", evs[i].Node, evs[i-1].Node)
		}
	}
}

// TestAgedMapExportImport: Export is sorted with refresh rounds, and an
// imported belief behaves exactly like the exported one from then on —
// same reports, same staleness, same expiries.
func TestAgedMapExportImport(t *testing.T) {
	orig, err := NewAgedMap(AgedConfig{ExpiryRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig.Apply(1, []core.Report{agedReport(5, 0, 6), agedReport(2, 1, 8), agedReport(2, 0, 6)}, nil)
	orig.Apply(2, []core.Report{agedReport(2, 1, 8), retireReport(2, 0)}, nil)
	exp := orig.Export()
	want := []AgedEntry{{agedReport(2, 1, 8), 2}, {agedReport(5, 0, 6), 1}}
	if !reflect.DeepEqual(exp, want) {
		t.Fatalf("export = %+v, want %+v", exp, want)
	}
	imp, err := NewAgedMap(AgedConfig{ExpiryRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.Import(exp, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(imp.Export(), exp) || imp.MeanAge(2) != orig.MeanAge(2) {
		t.Fatal("imported belief differs from the exported one")
	}
	for round := 3; round <= 5; round++ {
		batch := []core.Report{agedReport(network.NodeID(round), 0, 6)}
		if a, b := orig.Apply(round, batch, nil), imp.Apply(round, batch, nil); a != b {
			t.Fatalf("round %d: stats %+v vs %+v", round, a, b)
		}
		if !reflect.DeepEqual(orig.Reports(), imp.Reports()) {
			t.Fatalf("round %d: beliefs diverged", round)
		}
	}
}

// TestAgedMapImportRejects: Import refuses every list Export could not
// have produced after the given round and leaves the belief untouched.
func TestAgedMapImportRejects(t *testing.T) {
	entry := func(src, li, refreshed int) AgedEntry {
		return AgedEntry{agedReport(network.NodeID(src), li, 6), refreshed}
	}
	good := []AgedEntry{entry(1, 0, 3), entry(1, 1, 4), entry(3, 0, 4)}
	nan := entry(5, 0, 2)
	nan.Level = math.NaN()
	inf := entry(5, 0, 2)
	inf.Grad.X = math.Inf(1)
	retire := entry(5, 0, 2)
	retire.Retire = true
	for name, entries := range map[string][]AgedEntry{
		"retirement":        {retire},
		"NaN level":         {nan},
		"infinite gradient": {inf},
		"refresh after":     {entry(1, 0, 5)},
		"refresh zero":      {entry(1, 0, 0)},
		"duplicate":         {entry(1, 0, 3), entry(1, 0, 3)},
		"unsorted":          {entry(3, 0, 3), entry(1, 0, 3)},
	} {
		m, err := NewAgedMap(AgedConfig{ExpiryRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Import(good, 4); err != nil {
			t.Fatal(err)
		}
		if err := m.Import(entries, 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(m.Export(), good) {
			t.Errorf("%s: rejected import changed the belief", name)
		}
	}
}
