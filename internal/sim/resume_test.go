package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// stateJSON is the checkpoint encoding of a source's state.
func stateJSON(t *testing.T, rs *RoundSource) []byte {
	t.Helper()
	b, err := json.Marshal(rs.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRoundSourceDeltaResume pins the restore-from-state contract: a
// fresh same-seed source resumed from the JSON-encoded State after round
// k continues the continuous stream byte-identically, on the sequential
// and the sharded engine, through faulted rounds — and its state equals
// the one SeekRound(k)'s replay reconstructs.
func TestRoundSourceDeltaResume(t *testing.T) {
	r := NewRunner(1)
	cont := newDeltaSource(t, r, 5, 2)
	var (
		stream []*RoundData
		states = [][]byte{stateJSON(t, cont)}
	)
	for round := 0; round < 6; round++ {
		rd, err := cont.Next()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, rd)
		states = append(states, stateJSON(t, cont))
	}
	for k, raw := range states {
		replay := newDeltaSource(t, r, 5, 2)
		if err := replay.SeekRound(k); err != nil {
			t.Fatal(err)
		}
		if got := stateJSON(t, replay); string(got) != string(raw) {
			t.Fatalf("round %d: replayed state differs from the continuous one", k)
		}
		for _, shards := range []int{1, 4} {
			var st SourceState
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			re := newDeltaSource(t, r, 5, 2)
			re.Shards = shards
			if err := re.Resume(&st); err != nil {
				t.Fatalf("round %d: %v", k, err)
			}
			if re.Round() != k || string(stateJSON(t, re)) != string(raw) {
				t.Fatalf("round %d shards %d: resumed state differs from the exported one", k, shards)
			}
			for i := k; i < len(stream); i++ {
				rd, err := re.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rd, stream[i]) {
					t.Fatalf("resume at %d shards %d: round %d diverged (faulted=%v)", k, shards, stream[i].Round, stream[i].Faulted)
				}
			}
		}
	}
}

// TestRoundSourceResumeFullReport: outside delta mode the state is the
// round counter alone, and Resume equals SeekRound.
func TestRoundSourceResumeFullReport(t *testing.T) {
	r := NewRunner(1)
	src := newRoundSource(t, r, 5, 2)
	if err := src.Resume(&SourceState{Round: 3}); err != nil || src.Round() != 3 {
		t.Fatalf("Resume: err=%v round=%d", err, src.Round())
	}
	if b := stateJSON(t, src); string(b) != `{"round":3}` {
		t.Fatalf("full-report state = %s", b)
	}
	seeked := newRoundSource(t, r, 5, 2)
	if err := seeked.SeekRound(3); err != nil {
		t.Fatal(err)
	}
	a, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := seeked.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("resumed full-report round differs from the seeked one")
	}
}

// TestRoundSourceResumeRejects: states the source could not have
// exported are errors that leave the source untouched.
func TestRoundSourceResumeRejects(t *testing.T) {
	r := NewRunner(1)
	cont := newDeltaSource(t, r, 5, 0)
	for i := 0; i < 3; i++ {
		if _, err := cont.Next(); err != nil {
			t.Fatal(err)
		}
	}
	good := cont.State()
	if len(good.Sent) == 0 || len(good.Belief) == 0 {
		t.Fatal("three drifting rounds left no protocol state")
	}
	levels := cont.Env.Query.Levels.Count()
	mutate := map[string]func(*SourceState){
		"nil":              nil,
		"negative round":   func(s *SourceState) { s.Round = -1 },
		"node count":       func(s *SourceState) { s.Nodes++ },
		"sent source":      func(s *SourceState) { s.Sent[0].Source = 1 << 20 },
		"sent level":       func(s *SourceState) { s.Sent[0].LevelIndex = levels },
		"sent non-finite":  func(s *SourceState) { s.Sent[0].Pos.X = math.NaN() },
		"belief source":    func(s *SourceState) { s.Belief[len(s.Belief)-1].Source = -1 },
		"belief level":     func(s *SourceState) { s.Belief[0].LevelIndex = -1 },
		"belief high":      func(s *SourceState) { s.Belief[0].LevelIndex = levels },
		"belief inf":       func(s *SourceState) { s.Belief[0].Grad.Y = math.Inf(1) },
		"refresh too late": func(s *SourceState) { s.Belief[0].Refreshed = s.Round + 1 },
	}
	for name, f := range mutate {
		var st *SourceState
		if f != nil {
			st = clone(t, good)
			f(st)
		}
		re := newDeltaSource(t, r, 5, 0)
		if err := re.Resume(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if re.Round() != 0 || re.delta != nil || re.aged != nil {
			t.Errorf("%s: rejected state changed the source", name)
		}
	}
	full := newRoundSource(t, r, 5, 0)
	if err := full.Resume(good); err == nil || full.Round() != 0 {
		t.Errorf("full-report source accepted delta state: err=%v round=%d", err, full.Round())
	}
}

// clone deep-copies a state through its JSON encoding.
func clone(t *testing.T, st *SourceState) *SourceState {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := new(SourceState)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}
