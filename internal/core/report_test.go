package core

import (
	"math"
	"testing"

	"isomap/internal/geom"
)

func TestReportFinite(t *testing.T) {
	r := Report{Level: 2, Pos: geom.Point{X: 1, Y: 2}, Grad: geom.Vec{X: -1, Y: 0.5}}
	if !r.Finite() {
		t.Fatal("finite report reported non-finite")
	}
	for name, poison := range map[string]func(*Report){
		"level":  func(r *Report) { r.Level = math.NaN() },
		"pos x":  func(r *Report) { r.Pos.X = math.Inf(1) },
		"pos y":  func(r *Report) { r.Pos.Y = math.Inf(-1) },
		"grad x": func(r *Report) { r.Grad.X = math.NaN() },
		"grad y": func(r *Report) { r.Grad.Y = math.Inf(1) },
	} {
		bad := r
		poison(&bad)
		if bad.Finite() {
			t.Errorf("non-finite %s reported finite", name)
		}
	}
}

func TestSourceLevelLess(t *testing.T) {
	a := Report{Source: 1, LevelIndex: 3}
	b := Report{Source: 2, LevelIndex: 0}
	c := Report{Source: 2, LevelIndex: 1}
	if !SourceLevelLess(a, b) || !SourceLevelLess(b, c) || SourceLevelLess(c, b) || SourceLevelLess(b, b) {
		t.Fatal("(source, levelIndex) order broken")
	}
}
