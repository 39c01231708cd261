package main

import (
	"math"
	"testing"

	"distbayes/internal/cluster"
	"distbayes/internal/stream"
)

// Each correctness check accepts a right result and rejects a deliberately
// wrong one.

func TestCheckConservation(t *testing.T) {
	st := cluster.Stats{Frames: 10, Updates: 100, Events: 1000}
	if err := checkConservation(1000, st, []cluster.Stats{st, st}); err != nil {
		t.Fatalf("right result rejected: %v", err)
	}
	if checkConservation(1001, st, []cluster.Stats{st, st}) == nil {
		t.Error("lost event accepted")
	}
	other := st
	other.Updates++
	if checkConservation(1000, st, []cluster.Stats{st, other}) == nil {
		t.Error("site with different closing stats accepted")
	}
}

func TestCheckForwarded(t *testing.T) {
	st := cluster.Stats{Frames: 42}
	if err := checkForwarded(42, st); err != nil {
		t.Fatalf("right result rejected: %v", err)
	}
	if checkForwarded(41, st) == nil {
		t.Error("frame count mismatch accepted")
	}
}

func TestCheckEnvelope(t *testing.T) {
	if err := checkEnvelope(0.01, 0.1, 1000); err != nil {
		t.Fatalf("right result rejected: %v", err)
	}
	for _, c := range []struct {
		err     float64
		queries int
	}{{0.2, 1000}, {math.NaN(), 1000}, {math.Inf(1), 1000}, {-1, 1000}, {0.01, 0}} {
		if checkEnvelope(c.err, 0.1, c.queries) == nil {
			t.Errorf("error %v over %d queries accepted", c.err, c.queries)
		}
	}
}

// TestEnvelopeRejectsWrongEstimates feeds the envelope check the relative
// error of estimates that are exact and of estimates inflated by half.
func TestEnvelopeRejectsWrongEstimates(t *testing.T) {
	model, err := modelFor("alarm", 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(streamSpec{model: model, sites: 2, events: 20000, seed: 5}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(q stream.Query) float64 { return ref.exact.QuerySubsetProb(q.Set, q.X) }
	if e, n := ref.relErr(exact); checkEnvelope(e, 0.1, n) != nil || e != 0 {
		t.Fatalf("exact answers: error %v over %d queries", e, n)
	}
	inflated := func(q stream.Query) float64 { return 1.5 * exact(q) }
	if e, n := ref.relErr(inflated); checkEnvelope(e, 0.1, n) == nil {
		t.Fatalf("answers inflated by half accepted: error %v over %d queries", e, n)
	}
}

func TestCheckAnswer(t *testing.T) {
	if err := checkAnswer(200, true, 0.25, 3, 3); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for _, c := range []struct {
		code        int
		hasP        bool
		p           float64
		prev, later uint64
	}{
		{503, true, 0.25, 3, 3},
		{200, false, 0, 3, 3},
		{200, true, math.NaN(), 3, 3},
		{200, true, 1.5, 3, 3},
		{200, true, -0.1, 3, 3},
		{200, true, 0.25, 3, 2},
	} {
		if checkAnswer(c.code, c.hasP, c.p, c.prev, c.later) == nil {
			t.Errorf("wrong answer %+v accepted", c)
		}
	}
	if checkProb(0.5) != nil || checkProb(math.NaN()) == nil || checkProb(2) == nil {
		t.Error("checkProb misjudged a probability")
	}
}

func TestEdgeRecall(t *testing.T) {
	want := map[[2]int]bool{{0, 1}: true, {1, 2}: true}
	if r, err := edgeRecall(want, map[[2]int]bool{{0, 1}: true, {1, 2}: true, {2, 3}: true}); err != nil || r != 1 {
		t.Fatalf("full recovery: recall %v, %v", r, err)
	}
	if r, err := edgeRecall(want, map[[2]int]bool{{0, 1}: true, {0, 2}: true}); err == nil || r != 0.5 {
		t.Errorf("missing edge: recall %v, %v", r, err)
	}
}

func TestCheckSchedule(t *testing.T) {
	if err := checkSchedule(1); err != nil {
		t.Fatalf("punctual generator rejected: %v", err)
	}
	if checkSchedule(maxLateMs+1) == nil {
		t.Error("generator behind its schedule accepted")
	}
}
