package main

import (
	"fmt"
	"math"

	"distbayes/internal/cluster"
)

// The correctness checks every run applies to the program's outputs. Each is
// a pure function of what the run observed, so check_test.go can show that it
// rejects a deliberately wrong result.

// checkConservation: the coordinator accounted for exactly the configured
// events, and every site received the same closing stats.
func checkConservation(wantEvents int64, coord cluster.Stats, sites []cluster.Stats) error {
	if coord.Events != wantEvents {
		return fmt.Errorf("coordinator counted %d events, configured %d", coord.Events, wantEvents)
	}
	for i, s := range sites {
		if s != coord {
			return fmt.Errorf("site %d closing stats %+v differ from coordinator %+v", i, s, coord)
		}
	}
	return nil
}

// checkForwarded: the frames the forwarder delivered to the root after the
// handshakes are exactly the frames the root counted.
func checkForwarded(forwarded int64, coord cluster.Stats) error {
	if forwarded != coord.Frames {
		return fmt.Errorf("forwarder delivered %d frames, coordinator counted %d", forwarded, coord.Frames)
	}
	return nil
}

// checkEnvelope: the mean relative error of the tracked query answers
// against the exact MLE stays within the ε envelope, over a non-empty query
// set.
func checkEnvelope(meanRelErr, eps float64, queries int) error {
	if queries == 0 {
		return fmt.Errorf("no query had a non-zero exact MLE answer")
	}
	if math.IsNaN(meanRelErr) || math.IsInf(meanRelErr, 0) || meanRelErr < 0 {
		return fmt.Errorf("mean relative error %v is not a finite non-negative number", meanRelErr)
	}
	if meanRelErr > eps {
		return fmt.Errorf("mean relative error %.4g outside the ε=%g envelope", meanRelErr, eps)
	}
	return nil
}

// checkAnswer: a served answer is a 200 carrying a finite probability in
// [0, 1], and its snapshot version never goes down on its connection.
func checkAnswer(code int, hasP bool, p float64, prevVersion, version uint64) error {
	if code != 200 {
		return fmt.Errorf("status %d", code)
	}
	if !hasP || math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("probability %v (present %v) outside [0, 1]", p, hasP)
	}
	if version < prevVersion {
		return fmt.Errorf("snapshot version went down from %d to %d", prevVersion, version)
	}
	return nil
}

// checkProb: an in-process query answer is a finite probability in [0, 1].
func checkProb(p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return nil
}

// edgeRecall returns the share of want's edges that got contains, and an
// error unless every one is there.
func edgeRecall(want, got map[[2]int]bool) (float64, error) {
	if len(want) == 0 {
		return 0, fmt.Errorf("no post-drift edges to recover")
	}
	hit := 0
	for e := range want {
		if got[e] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(want))
	if hit != len(want) {
		return recall, fmt.Errorf("learned structure recovered %d of %d post-drift edges", hit, len(want))
	}
	return recall, nil
}

// maxLateMs is how far (p99) an open-loop generator may slip behind its
// schedule before its repetition is reported as failed: beyond it requests
// queued up behind each other, the offered load was not the configured one
// and the latencies describe a different rate. Shorter stalls (a descheduled
// virtual CPU can stall the process for tens of milliseconds) only show in
// the latency tail.
const maxLateMs = 100.0

// checkSchedule fails a repetition whose generator fell behind.
func checkSchedule(lateP99Ms float64) error {
	if lateP99Ms > maxLateMs {
		return fmt.Errorf("open-loop generator ran %.2f ms late at p99 (limit %.0f ms)", lateP99Ms, maxLateMs)
	}
	return nil
}
