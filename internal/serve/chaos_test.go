package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/cluster/chaos"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// TestServeChaosCoordinatorKillRestart extends the PR 6 chaos harness to
// the serving plane: the coordinator is killed at a seeded frame count
// under a live closed-loop client mix, a replacement is restored from its
// last checkpoint and swapped in (SwappableSource), the chaos proxy
// retargets so the sites re-resume — and through all of it every response
// must be either a correct answer from a version-monotone snapshot
// (degraded ones tagged and within the staleness ceiling) or a clean
// 429/503: never a hang, never a torn read, never a 500. Runs under -race
// in CI.
func TestServeChaosCoordinatorKillRestart(t *testing.T) {
	events := 20000
	if testing.Short() {
		events = 6000
	}
	dir := t.TempDir()
	cfg := cluster.Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform,
		Eps: 0.1, Delta: 0.25, Sites: 4, Events: events, StreamSeed: 1789,
		CheckpointPath:        filepath.Join(dir, "coord.ckpt"),
		CheckpointEveryFrames: 300,
	}

	co1, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Seeded kill point: past several checkpoint cadences, well before the
	// run can finish (same schedule as the cluster-layer chaos test).
	rng := bn.NewRNG(0x5EEDC0DE)
	co1.CrashAfterFrames = int64(cfg.Events/4 + rng.Intn(cfg.Events/4))
	p, err := chaos.New(chaos.Config{}, co1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	sw, err := NewSwappableSource(NewCoordinatorSource(co1))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{
		Source:         sw,
		MaxSnapshotAge: 500 * time.Microsecond, // refresh often: the failover is the point
		MaxDegradedAge: time.Minute,
		MaxConcurrent:  16,
		RequestTimeout: 10 * time.Second,
	})

	var wg sync.WaitGroup
	errs := make([]error, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := cluster.NewSite(uint32(i), p.Addr())
			s.RetryBase = 2 * time.Millisecond
			s.RetryCap = 50 * time.Millisecond
			s.MaxResumes = 200 // the coordinator is gone for a stretch; keep knocking
			_, errs[i] = s.Run()
		}(i)
	}

	// Closed-loop clients across the whole kill/restore window. Each pins
	// the full response contract per request.
	nw := co1.Network()
	done := make(chan struct{})
	var clientWG sync.WaitGroup
	var degradedSeen, shedSeen atomic.Int64
	for c := 0; c < 3; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			client := &http.Client{Transport: testTransport, Timeout: 30 * time.Second}
			crng := bn.NewRNG(uint64(c) + 0xFACE)
			var x []int
			var lastVersion uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				x = stream.RandomAssignment(nw, crng, x)
				resp, err := client.Post("http://"+srv.Addr()+"/v1/queryprob",
					"text/plain", bytes.NewBufferString(csvBody(x)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var env queryEnvelope
				decErr := json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						t.Errorf("client %d: decoding 200: %v", c, decErr)
						return
					}
					if math.IsNaN(env.Result.P) || env.Result.P < 0 || env.Result.P > 1 {
						t.Errorf("client %d: bad probability %v", c, env.Result.P)
						return
					}
					if env.Snapshot.Version < lastVersion {
						t.Errorf("client %d: version went backwards: %d -> %d",
							c, lastVersion, env.Snapshot.Version)
						return
					}
					lastVersion = env.Snapshot.Version
					if env.Snapshot.Degraded {
						degradedSeen.Add(1)
						if age := time.Duration(env.Snapshot.AgeMicros) * time.Microsecond; age > time.Minute {
							t.Errorf("client %d: degraded answer %v old, past the ceiling", c, age)
							return
						}
					}
				case http.StatusTooManyRequests:
					shedSeen.Add(1)
				case http.StatusServiceUnavailable:
					// clean rejection (deadline or no servable snapshot)
				default:
					t.Errorf("client %d: status %d — the overload contract allows only 200/429/503",
						c, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	serve1 := make(chan error, 1)
	go func() {
		_, err := co1.Serve()
		serve1 <- err
	}()
	if err := <-serve1; err != cluster.ErrCoordinatorClosed {
		t.Fatalf("killed Serve returned %v, want ErrCoordinatorClosed", err)
	}

	// The coordinator is dead. The server must flip to degraded — observed
	// deterministically via a synchronous probe (the cache is stale within
	// 500µs, so the next acquire probes the dead source).
	x := make([]int, nw.Len())
	waitFor(t, "degraded serving after the kill", func() bool {
		code, env := queryOnce(t, srv.Addr(), x)
		if code != http.StatusOK {
			t.Fatalf("query after kill: code %d (%s) — degraded serving should bridge the gap", code, env.Error)
		}
		return env.Snapshot.Degraded
	})
	if hcode, state := healthState(t, srv.Addr()); hcode != http.StatusOK || state != HealthDegraded {
		t.Fatalf("healthz after kill: %d %q", hcode, state)
	}

	// Restore the replacement from the last cadence checkpoint (its write
	// is asynchronous; wait for the file), retarget the proxy, swap it in.
	waitFor(t, "a checkpoint file", func() bool {
		_, err := os.Stat(cfg.CheckpointPath)
		return err == nil
	})
	co2, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	if err := co2.RestoreCheckpointFile(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	p.SetTarget(co2.Addr())
	if err := sw.Swap(NewCoordinatorSource(co2)); err != nil {
		t.Fatal(err)
	}

	// Fresh serving resumes through the swapped source, no restart.
	waitFor(t, "fresh serving after the swap", func() bool {
		code, env := queryOnce(t, srv.Addr(), x)
		return code == http.StatusOK && !env.Snapshot.Degraded
	})

	serve2 := make(chan cluster.Result, 1)
	go func() {
		res, err := co2.Serve()
		if err != nil {
			t.Error(err)
		}
		serve2 <- res
	}()
	wg.Wait()
	res := <-serve2
	close(done)
	clientWG.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	if res.Stats.Events != int64(cfg.Events) {
		t.Errorf("restored run accounted %d events, want %d", res.Stats.Events, cfg.Events)
	}

	// Quiescent end state: the server's answer is bit-identical to the
	// restored coordinator's own query path, at a version that never moved
	// backwards across the failover.
	rng2 := bn.NewRNG(99)
	for q := 0; q < 10; q++ {
		x = stream.RandomAssignment(nw, rng2, x)
		code, env := queryOnce(t, srv.Addr(), x)
		if code != http.StatusOK || env.Snapshot.Degraded {
			t.Fatalf("final query: code %d degraded %v", code, env.Snapshot.Degraded)
		}
		if want := co2.QueryProb(x); math.Float64bits(env.Result.P) != math.Float64bits(want) {
			t.Fatalf("final answer %v != coordinator %v", env.Result.P, want)
		}
	}

	st := srv.Stats()
	if degradedSeen.Load() == 0 && st.Degraded.Served == 0 {
		t.Error("no degraded responses were served; the chaos run degenerated to a clean one")
	}
	if st.Degraded.RefreshErrors == 0 {
		t.Error("no refresh errors recorded across a coordinator kill")
	}
	if st.Panics != 0 {
		t.Errorf("server recorded %d panics", st.Panics)
	}
	t.Logf("chaos serve run: %d degraded answers, %d shed, %d refresh errors, final version %d",
		st.Degraded.Served, shedSeen.Load(), st.Degraded.RefreshErrors, st.Snapshot.Version)
}
