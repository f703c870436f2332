// Package monitor implements continuous contour monitoring on top of the
// Iso-Map protocol — the deployment mode of the paper's motivating harbor
// application, where the silting sea route is mapped round after round
// rather than once (and the paper's stated future work).
//
// Beyond repeating protocol rounds, the monitor adds temporal report
// suppression: an isoline node that already reported the same isolevel
// with a near-identical gradient in the previous round stays silent, and
// the sink reuses its cached report. Nodes that leave an isoline send a
// small retirement notice so the sink drops the stale report. On a slowly
// changing field this cuts steady-state traffic far below even Iso-Map's
// per-round O(sqrt n).
package monitor

import (
	"fmt"
	"sort"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/energy"
	"isomap/internal/field"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// RetireBytes is the wire size of a retirement notice: isolevel + node
// position (the sink keys cached reports by source), three 2-byte
// parameters.
const RetireBytes = 6

// TemporalConfig tunes cross-round suppression.
type TemporalConfig struct {
	// Enabled turns temporal suppression on.
	Enabled bool
	// MaxAngle is the gradient rotation (radians) below which a repeated
	// report is considered unchanged and suppressed.
	MaxAngle float64
}

// DefaultTemporal suppresses repeats whose gradient rotated less than 10
// degrees.
func DefaultTemporal() TemporalConfig {
	return TemporalConfig{Enabled: true, MaxAngle: 10 * 3.14159265358979 / 180}
}

// Config assembles a monitoring session.
type Config struct {
	Query    core.Query
	Filter   core.FilterConfig
	Temporal TemporalConfig
	// Reconstruct options for the per-round map.
	Options contour.Options
}

// Monitor drives periodic Iso-Map rounds over one routing tree.
type Monitor struct {
	tree *routing.Tree
	cfg  Config
	// cache is the sink's current belief: the freshest report per
	// (source, level).
	cache map[cacheKey]core.Report
	// lastSent is each node's previous-round report set, for source-side
	// suppression decisions.
	lastSent map[cacheKey]core.Report
	round    int
	// cumulative counters across rounds.
	cumTxBytes int64
	cumJoules  float64
}

type cacheKey struct {
	source network.NodeID
	level  int
}

// RoundStats summarizes one monitoring round.
type RoundStats struct {
	// Round is the 0-based round number.
	Round int
	// Generated counts reports produced by isoline nodes this round,
	// before temporal or spatial filtering.
	Generated int
	// Suppressed counts reports silenced by temporal suppression.
	Suppressed int
	// Retired counts stale reports withdrawn this round.
	Retired int
	// Delivered counts reports that reached the sink this round.
	Delivered int
	// CachedReports is the size of the sink's belief after the round.
	CachedReports int
	// TrafficKB is this round's transmitted volume.
	TrafficKB float64
	// CumulativeTrafficKB sums all rounds so far.
	CumulativeTrafficKB float64
	// MeanEnergyJ is the cumulative per-node energy so far.
	MeanEnergyJ float64
	// Map is the contour map reconstructed from the sink's belief.
	Map *contour.Map
}

// New creates a monitoring session over an existing routing tree.
func New(tree *routing.Tree, cfg Config) (*Monitor, error) {
	if tree == nil {
		return nil, fmt.Errorf("monitor: nil routing tree")
	}
	if cfg.Query.Levels.Step <= 0 {
		return nil, fmt.Errorf("monitor: query has no isolevel scheme")
	}
	return &Monitor{
		tree:     tree,
		cfg:      cfg,
		cache:    make(map[cacheKey]core.Report),
		lastSent: make(map[cacheKey]core.Report),
	}, nil
}

// Round executes one monitoring round against the current state of the
// field (pass a time-varying field's snapshot to track change).
func (m *Monitor) Round(f field.Field) (*RoundStats, error) {
	nw := m.tree.Network()
	nw.Sense(f)

	c := metrics.NewCounters(nw.Len())
	if m.round == 0 {
		// The query is disseminated once, at session start.
		core.DisseminateQuery(m.tree, c)
	}

	generated := core.DetectIsolineNodes(nw, m.cfg.Query, c)

	// Source-side temporal suppression.
	toSend := make([]core.Report, 0, len(generated))
	current := make(map[cacheKey]core.Report, len(generated))
	suppressed := 0
	for _, r := range generated {
		if !m.tree.Reachable(r.Source) {
			continue
		}
		key := cacheKey{source: r.Source, level: r.LevelIndex}
		current[key] = r
		if m.cfg.Temporal.Enabled {
			if prev, ok := m.lastSent[key]; ok &&
				core.AngularSeparation(prev, r) < m.cfg.Temporal.MaxAngle {
				suppressed++
				continue
			}
		}
		toSend = append(toSend, r)
	}

	// Retirement notices for nodes that left their isolines. A node
	// retiring several levels batches them into one notice (position +
	// one isolevel parameter per retired level).
	retired := 0
	if m.cfg.Temporal.Enabled {
		retiresBySource := make(map[network.NodeID]int)
		for key := range m.lastSent {
			if _, still := current[key]; still {
				continue
			}
			retiresBySource[key.source]++
			delete(m.cache, key)
			delete(m.lastSent, key)
			retired++
		}
		for source, count := range retiresBySource {
			if !m.tree.Reachable(source) || !nw.Alive(source) {
				continue
			}
			c.SendToSink(m.tree.PathToSink(source), RetireBytes+2*(count-1))
		}
	}

	delivered := core.DeliverReports(m.tree, toSend, m.cfg.Filter, c)
	for _, r := range delivered {
		m.cache[cacheKey{source: r.Source, level: r.LevelIndex}] = r
	}
	// Remember what each source attempted to send; suppression compares
	// against the last transmission attempt.
	for _, r := range toSend {
		m.lastSent[cacheKey{source: r.Source, level: r.LevelIndex}] = r
	}
	if !m.cfg.Temporal.Enabled {
		// Without temporal state the sink belief is just this round.
		m.cache = make(map[cacheKey]core.Report, len(delivered))
		for _, r := range delivered {
			m.cache[cacheKey{source: r.Source, level: r.LevelIndex}] = r
		}
	}

	m.cumTxBytes += c.TotalTxBytes()
	m.cumJoules += energy.MeanNodeJoules(c)

	believed := make([]core.Report, 0, len(m.cache))
	for _, r := range m.cache {
		believed = append(believed, r)
	}
	// Map iteration is randomized; fix the order so reconstructions are
	// reproducible.
	sort.Slice(believed, func(i, j int) bool { return core.SourceLevelLess(believed[i], believed[j]) })
	sinkValue := nw.Node(m.tree.Root()).Value
	mp := contour.Reconstruct(believed, m.cfg.Query.Levels,
		nw.Bounds(), sinkValue, m.cfg.Options)

	stats := &RoundStats{
		Round:               m.round,
		Generated:           len(generated),
		Suppressed:          suppressed,
		Retired:             retired,
		Delivered:           len(delivered),
		CachedReports:       len(m.cache),
		TrafficKB:           c.TrafficKB(),
		CumulativeTrafficKB: float64(m.cumTxBytes) / 1024,
		MeanEnergyJ:         m.cumJoules,
		Map:                 mp,
	}
	m.round++
	return stats, nil
}

// Rounds returns the number of completed rounds.
func (m *Monitor) Rounds() int { return m.round }
