package core

import (
	"fmt"
	"math"

	"isomap/internal/geom"
	"isomap/internal/network"
)

// Report is an isoline node's 3-tuple report r = <v, p, d> (Sec. 3.3): the
// isolevel, the node position, and the local gradient direction. Source and
// LevelIndex are carried for bookkeeping; on the wire the report occupies
// ReportBytes.
type Report struct {
	// Level is the isolevel v the node sits on.
	Level float64 `json:"level"`
	// LevelIndex is Level's index in the query's isolevel scheme.
	LevelIndex int `json:"levelIndex"`
	// Pos is the isoposition p.
	Pos geom.Point `json:"pos"`
	// Grad is the gradient direction d = -grad(f): the direction in which
	// the attribute value most degrades. The isoline's normal direction.
	Grad geom.Vec `json:"grad"`
	// Source identifies the reporting isoline node.
	Source network.NodeID `json:"source"`
	// Retire marks a withdrawal record of the delta-report monitoring
	// mode: the source left this isolevel and the sink must drop its
	// cached report. Pos and Grad carry the retired report's values so
	// the record identifies the cache entry; on the wire a retirement
	// occupies RetireBytes instead of ReportBytes.
	Retire bool `json:"retire,omitempty"`
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("report{v=%.3g p=%v d=%v from=%d}", r.Level, r.Pos, r.Grad, r.Source)
}

// Finite reports whether every number the report carries (level,
// position, gradient) is finite.
func (r Report) Finite() bool {
	for _, v := range [...]float64{r.Level, r.Pos.X, r.Pos.Y, r.Grad.X, r.Grad.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// SourceLevelLess orders reports by (Source, LevelIndex): the canonical
// order of per-(source, isolevel) report sets such as the sink's belief.
func SourceLevelLess(a, b Report) bool {
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	return a.LevelIndex < b.LevelIndex
}

// AngularSeparation returns s_a: the unsigned angle between the gradient
// directions of two reports (Sec. 3.5).
func AngularSeparation(a, b Report) float64 {
	return a.Grad.AngleBetween(b.Grad)
}

// DistanceSeparation returns s_d: the distance between the isopositions of
// two reports.
func DistanceSeparation(a, b Report) float64 {
	return a.Pos.DistTo(b.Pos)
}
