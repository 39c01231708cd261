package main

import (
	"testing"
	"time"
)

// TestCPUByLabel profiles a goroutine burning CPU under a layer label and
// checks that the decoded profile attributes that CPU to the label.
func TestCPUByLabel(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	done := make(chan struct{})
	go tr.inLayer("busy", func() {
		defer close(done)
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		}
	})
	<-done
	cpu, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if busy := time.Duration(cpu["busy"]); busy < 100*time.Millisecond {
		t.Fatalf("label busy got %v of CPU, want most of 300ms (all: %v)", busy, cpu)
	}
}

func TestFreshness(t *testing.T) {
	var f freshness
	t0 := time.Now()
	f.answered(5, t0)
	f.framePassed(t0.Add(1 * time.Millisecond))
	f.framePassed(t0.Add(2 * time.Millisecond))
	f.answered(5, t0.Add(3*time.Millisecond)) // same version: not fresher
	f.answered(6, t0.Add(4*time.Millisecond))
	got, pending := f.samples()
	if pending != 0 || len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("samples %v with %d pending, want [3 2] ms and none pending", got, pending)
	}
}
