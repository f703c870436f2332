package monitor

import (
	"fmt"
	"sort"

	"isomap/internal/core"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// AgedMap is the sink half of the delta-report protocol (the packet-level
// counterpart of Monitor's seed-layer cache): the sink's current belief
// as a report per (source, isolevel), each entry stamped with the round
// that last refreshed it. Delta rounds feed it what the network
// delivered — crossing reports upsert their entry, retirement records
// withdraw theirs — and the merged, deterministically ordered view feeds
// contour reconstruction.
//
// Aging is the staleness guard: a retirement lost to the radio would
// otherwise pin its stale report forever, so entries not refreshed
// within ExpiryRounds rounds are dropped. On a static field (or with
// aging disabled) nothing expires and the belief is exactly the union of
// everything reported minus everything retired.
type AgedMap struct {
	cfg     AgedConfig
	entries map[cacheKey]agedEntry
}

// AgedConfig tunes sink-side retention.
type AgedConfig struct {
	// ExpiryRounds bounds how many rounds an entry survives without a
	// refresh; an entry refreshed at round r is dropped after round
	// r+ExpiryRounds. Zero disables aging entirely.
	ExpiryRounds int
}

type agedEntry struct {
	report core.Report
	round  int // round that last refreshed the entry
}

// NewAgedMap validates cfg and returns an empty belief.
func NewAgedMap(cfg AgedConfig) (*AgedMap, error) {
	if cfg.ExpiryRounds < 0 {
		return nil, fmt.Errorf("monitor: negative expiry %d rounds", cfg.ExpiryRounds)
	}
	return &AgedMap{cfg: cfg, entries: make(map[cacheKey]agedEntry)}, nil
}

// AgedStats tallies one Apply call.
type AgedStats struct {
	// Fresh counts reports upserted, Retired withdrawals honored, and
	// Expired entries aged out this round.
	Fresh   int
	Retired int
	Expired int
	// Size is the belief size after the round.
	Size int
}

// Apply folds one round's delivered reports into the belief and runs the
// expiry pass. round is the 1-based round number; rec, when non-nil,
// receives a KindAgeExpire event per aged-out entry (post-round sink
// events, recorded at T=0 like the reconstruction stages).
func (m *AgedMap) Apply(round int, delivered []core.Report, rec *trace.Recorder) AgedStats {
	var st AgedStats
	for _, r := range delivered {
		key := cacheKey{source: r.Source, level: r.LevelIndex}
		if r.Retire {
			if _, ok := m.entries[key]; ok {
				delete(m.entries, key)
				st.Retired++
			}
			continue
		}
		m.entries[key] = agedEntry{report: r, round: round}
		st.Fresh++
	}
	if m.cfg.ExpiryRounds > 0 {
		var expired []cacheKey
		for key, e := range m.entries {
			if round-e.round > m.cfg.ExpiryRounds {
				expired = append(expired, key)
			}
		}
		// Map iteration is randomized; expire (and trace) in fixed order.
		sort.Slice(expired, func(i, j int) bool {
			if expired[i].source != expired[j].source {
				return expired[i].source < expired[j].source
			}
			return expired[i].level < expired[j].level
		})
		for _, key := range expired {
			delete(m.entries, key)
			st.Expired++
			if rec != nil {
				rec.Record(trace.Event{Kind: trace.KindAgeExpire,
					Node: int32(key.source), Peer: -1, Arg: int32(key.level)})
			}
		}
	}
	st.Size = len(m.entries)
	return st
}

// Reports returns the belief in deterministic (source, isolevel) order —
// the reconstruction feed.
func (m *AgedMap) Reports() []core.Report {
	out := make([]core.Report, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e.report)
	}
	sort.Slice(out, func(i, j int) bool { return core.SourceLevelLess(out[i], out[j]) })
	return out
}

// AgedEntry is one belief entry in checkpointable form: the report and
// the round that last refreshed it.
type AgedEntry struct {
	core.Report
	Refreshed int `json:"refreshed"`
}

// Export returns the belief with its refresh rounds, sorted by (source,
// isolevel): the deterministic, checkpointable form of the map.
func (m *AgedMap) Export() []AgedEntry {
	out := make([]AgedEntry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, AgedEntry{Report: e.report, Refreshed: e.round})
	}
	sort.Slice(out, func(i, j int) bool { return core.SourceLevelLess(out[i].Report, out[j].Report) })
	return out
}

// Import replaces the belief with an Export list taken after round
// (the last completed round). It rejects (leaving the belief untouched)
// a list that Export could not have produced then: a retirement record,
// a non-finite value, a refresh round outside [1, round], or entries out
// of (source, isolevel) order or duplicated.
func (m *AgedMap) Import(entries []AgedEntry, round int) error {
	for i, e := range entries {
		switch {
		case e.Retire:
			return fmt.Errorf("monitor: aged import: entry %d: retirement record", i)
		case !e.Finite():
			return fmt.Errorf("monitor: aged import: entry %d: non-finite value", i)
		case e.Refreshed < 1 || e.Refreshed > round:
			return fmt.Errorf("monitor: aged import: entry %d: refresh round %d outside [1,%d]", i, e.Refreshed, round)
		case i > 0 && !core.SourceLevelLess(entries[i-1].Report, e.Report):
			return fmt.Errorf("monitor: aged import: entry %d (source %d, level %d) out of order or duplicated", i, e.Source, e.LevelIndex)
		}
	}
	m.entries = make(map[cacheKey]agedEntry, len(entries))
	for _, e := range entries {
		m.entries[cacheKey{source: e.Source, level: e.LevelIndex}] = agedEntry{report: e.Report, round: e.Refreshed}
	}
	return nil
}

// Len returns the belief size.
func (m *AgedMap) Len() int { return len(m.entries) }

// MeanAge returns the belief's mean staleness in rounds as of round
// (0 for an empty belief): the tracking-error experiments' staleness
// metric.
func (m *AgedMap) MeanAge(round int) float64 {
	if len(m.entries) == 0 {
		return 0
	}
	sum := 0
	for _, e := range m.entries {
		sum += round - e.round
	}
	return float64(sum) / float64(len(m.entries))
}

// Ages returns the per-source staleness of the belief as of round, for
// diagnostics: source -> oldest tracked entry age.
func (m *AgedMap) Ages(round int) map[network.NodeID]int {
	out := make(map[network.NodeID]int)
	for key, e := range m.entries {
		if age := round - e.round; age > out[key.source] {
			out[key.source] = age
		}
	}
	return out
}

// Reset empties the belief.
func (m *AgedMap) Reset() {
	m.entries = make(map[cacheKey]agedEntry)
}
