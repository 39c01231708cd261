// Package leakcheck is a goroutine-leak check for tests, built on the
// standard library's goroutine profile.
package leakcheck

import (
	"bytes"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// Wait bounds how long Check lets the test's own goroutines (sites it ran,
// relays it started, clients it dialled) finish after the test ends.
const Wait = 5 * time.Second

// Check fails t unless every goroutine started during the test has exited
// once the test body and the cleanups registered after this call — every
// Close and Shutdown among them — have run. Goroutines started by non-test
// code of the package pkg (an import path) rather than by the test must be
// on their way out already: one still blocked inside the package (waiting
// on a connection, a channel, a file write) means a Close returned without
// joining it, and may act after the test is gone. The rest get Wait to
// finish. On failure the surviving stacks are printed.
func Check(t testing.TB, pkg string) {
	t.Helper()
	before := stacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(Wait)
		for first := true; ; first = false {
			var blocked, alive []string
			for id, stack := range stacks() {
				if _, ok := before[id]; ok {
					continue
				}
				alive = append(alive, stack)
				if first && ownedAndBlocked(stack, pkg) {
					blocked = append(blocked, stack)
				}
			}
			sort.Strings(blocked)
			sort.Strings(alive)
			switch {
			case len(blocked) > 0:
				t.Errorf("%d package goroutine(s) still blocked after Close:\n\n%s",
					len(blocked), strings.Join(blocked, "\n\n"))
				return
			case len(alive) == 0:
				return
			case time.Now().After(deadline):
				t.Errorf("%d goroutine(s) still running %v after the test:\n\n%s",
					len(alive), Wait, strings.Join(alive, "\n\n"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// stacks returns every live goroutine's stack keyed by goroutine id (ids
// are never reused within a process).
func stacks() map[string]string {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	out := make(map[string]string)
	for _, g := range strings.Split(strings.TrimSpace(buf.String()), "\n\n") {
		hdr, _, _ := strings.Cut(g, " [")
		if id, ok := strings.CutPrefix(hdr, "goroutine "); ok {
			out[id] = g
		}
	}
	return out
}

// ownedAndBlocked reports whether a goroutine was created by non-test code
// of package pkg and is parked rather than running: a joined goroutine that
// is merely exiting shows as running or runnable.
func ownedAndBlocked(stack, pkg string) bool {
	i := strings.LastIndex(stack, "\ncreated by ")
	if i < 0 {
		return false
	}
	creator, file, _ := strings.Cut(stack[i+1:], "\n")
	if !strings.HasPrefix(creator, "created by "+pkg+".") || strings.Contains(file, "_test.go:") {
		return false
	}
	_, state, _ := strings.Cut(stack, " [")
	state, _, _ = strings.Cut(state, "]")
	state, _, _ = strings.Cut(state, ",")
	return state != "running" && state != "runnable"
}
