package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/stream"
)

// RunLocal executes a full cluster run on loopback TCP: it starts a
// coordinator on an ephemeral port, launches cfg.Sites site goroutines (each
// with its own TCP connection), and returns the run result together with the
// coordinator (still usable for queries). Sites generate the same per-site
// sub-streams as the in-process parallel engine (stream.NewSiteTrainings
// with seed StreamSeed+id), so a cluster run and a sharded in-process run
// over the same StreamSeed ingest identical events.
//
// With Config.LiveQueryMicros set, RunLocal also drives a mid-run query mix:
// a dedicated goroutine issues QueryProb on random assignments (every eighth
// probe an EstimatedModel) against the coordinator for as long as the sites
// stream — exercising the live snapshot-query path, the paper's
// query-at-any-time model. The number of queries issued is returned in
// Result.LiveQueries.
//
// This is the harness behind the Figure 7/8 experiments and the cluster
// example; cmd/bncluster runs the same roles as separate processes.
func RunLocal(cfg Config) (Result, *Coordinator, error) {
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, err
	}
	defer co.Close()

	type siteOut struct {
		stats Stats
		err   error
	}
	outs := make([]siteOut, cfg.Sites)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := NewSite(uint32(i), co.Addr()).Run()
			outs[i] = siteOut{stats: st, err: err}
		}(i)
	}

	// The mid-run query mix: hammer the live query paths until Serve is
	// done. Queries race ingestion by design — that is the scenario the
	// striped snapshot machinery exists for.
	var queries atomic.Int64
	var qwg sync.WaitGroup
	stop := make(chan struct{})
	if cfg.LiveQueryMicros > 0 {
		interval := time.Duration(cfg.LiveQueryMicros) * time.Microsecond
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			queries.Store(LiveQueryMix(co, cfg.StreamSeed^0x11fe, interval, stop))
		}()
	}

	res, serveErr := co.Serve()
	close(stop)
	qwg.Wait()
	wg.Wait()
	if serveErr != nil {
		return Result{}, nil, serveErr
	}
	for i, o := range outs {
		if o.err != nil {
			return Result{}, nil, fmt.Errorf("cluster: site %d: %w", i, o.err)
		}
		if o.stats != res.Stats {
			return Result{}, nil, fmt.Errorf("cluster: site %d saw stats %+v, coordinator %+v", i, o.stats, res.Stats)
		}
	}
	res.LiveQueries = queries.Load()
	return res, co, nil
}

// ChurnConfig parameterizes RunLocalChurn's deterministic site churn.
type ChurnConfig struct {
	// Seed derives every site's crash schedule.
	Seed uint64
	// CrashesPerSite is how many times each site process is killed and
	// restarted over its stream (crash points are seeded ascending stream
	// positions, so the schedule is reproducible and timing-independent).
	CrashesPerSite int
}

// RunLocalChurn is RunLocal under site churn: each site goroutine is killed
// (via the Site.CrashAfterEvents chaos hook — the site stops dead at a
// deterministic stream position without sending Done) and restarted as a
// fresh process-equivalent Site at CrashesPerSite seeded points of its
// stream. A restarted site rejoins with a plain hello and replays its stream
// from event zero; per-site determinism reproduces the identical report
// decisions and the coordinator's max-merge fold absorbs the duplicates, so
// the final estimates are bit-identical to an uninterrupted RunLocal of the
// same Config (asserted by the chaos suite).
func RunLocalChurn(cfg Config, churn ChurnConfig) (Result, *Coordinator, error) {
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, err
	}
	defer co.Close()

	type siteOut struct {
		stats Stats
		err   error
	}
	outs := make([]siteOut, cfg.Sites)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := bn.NewRNG(churn.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
			ev := uint64(cfg.eventsFor(uint32(i)))
			// Ascending crash points: each incarnation must outlive the
			// previous crash position or the schedule would livelock.
			points := make([]uint64, 0, churn.CrashesPerSite)
			for ev > 0 && len(points) < churn.CrashesPerSite {
				p := 1 + uint64(rng.Intn(int(ev)))
				if len(points) == 0 || p > points[len(points)-1] {
					points = append(points, p)
				} else {
					break // tail of the schedule collapsed; fewer crashes, still valid
				}
			}
			for _, p := range points {
				s := NewSite(uint32(i), co.Addr())
				s.CrashAfterEvents = p
				if _, err := s.Run(); !errors.Is(err, ErrSiteCrashed) {
					outs[i] = siteOut{err: fmt.Errorf("cluster: churn site %d: crash hook returned %v, want ErrSiteCrashed", i, err)}
					return
				}
			}
			st, err := NewSite(uint32(i), co.Addr()).Run()
			outs[i] = siteOut{stats: st, err: err}
		}(i)
	}

	res, serveErr := co.Serve()
	wg.Wait()
	if serveErr != nil {
		return Result{}, nil, serveErr
	}
	for i, o := range outs {
		if o.err != nil {
			return Result{}, nil, fmt.Errorf("cluster: site %d: %w", i, o.err)
		}
		if o.stats != res.Stats {
			return Result{}, nil, fmt.Errorf("cluster: site %d saw stats %+v, coordinator %+v", i, o.stats, res.Stats)
		}
	}
	return res, co, nil
}

// RunLocalTree is RunLocal with a depth-2 aggregation tree between the sites
// and the coordinator: ⌈Sites/branching⌉ relays each front a contiguous chunk
// of up to branching sites, fold their frames locally, and ship coalesced
// grouped frames upstream — so the coordinator's frame rate divides by the
// branching factor while the folded per-site vectors (monotone counts,
// idempotent max-merge) keep every final estimate bit-identical to a flat
// RunLocal of the same Config. flush is the relays' FlushInterval (0 selects
// the default); the returned relays are already closed.
func RunLocalTree(cfg Config, branching int, flush time.Duration) (Result, *Coordinator, []*Relay, error) {
	if branching < 1 {
		return Result{}, nil, nil, fmt.Errorf("cluster: tree branching = %d, want >= 1", branching)
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, nil, err
	}
	defer co.Close()

	nRelays := (cfg.Sites + branching - 1) / branching
	relays := make([]*Relay, nRelays)
	for i := range relays {
		r, err := NewRelay(RelayConfig{ID: uint32(i), Parent: co.Addr(), FlushInterval: flush}, "127.0.0.1:0")
		if err != nil {
			for _, r := range relays[:i] {
				r.Close()
			}
			return Result{}, nil, nil, err
		}
		relays[i] = r
		go r.Run()
	}
	defer func() {
		for _, r := range relays {
			r.Close() // joins r.Run
		}
	}()

	type siteOut struct {
		stats Stats
		err   error
	}
	outs := make([]siteOut, cfg.Sites)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := NewSite(uint32(i), relays[i/branching].Addr()).Run()
			outs[i] = siteOut{stats: st, err: err}
		}(i)
	}

	res, serveErr := co.Serve()
	wg.Wait()
	if serveErr != nil {
		return Result{}, nil, nil, serveErr
	}
	for i, o := range outs {
		if o.err != nil {
			return Result{}, nil, nil, fmt.Errorf("cluster: site %d: %w", i, o.err)
		}
		if o.stats != res.Stats {
			return Result{}, nil, nil, fmt.Errorf("cluster: site %d saw stats %+v, coordinator %+v", i, o.stats, res.Stats)
		}
	}
	return res, co, relays, nil
}

// LiveQueryMix drives the standard mid-run query workload against a live
// coordinator until stop closes, returning the number of queries issued: a
// QueryProb on a fresh random assignment every interval, with every eighth
// probe an EstimatedModel materialization. The answers come from the
// version-validated snapshot path and deliberately race ingestion — the
// paper's query-at-any-time model. RunLocal runs this when
// Config.LiveQueryMicros is set; cmd/bncluster's coordinator role uses it
// to serve queries while remote sites stream.
func LiveQueryMix(co *Coordinator, seed uint64, interval time.Duration, stop <-chan struct{}) int64 {
	rng := bn.NewRNG(seed)
	var x []int
	var n int64
	for i := 0; ; i++ {
		select {
		case <-stop:
			return n
		default:
		}
		x = stream.RandomAssignment(co.Network(), rng, x)
		if i%8 == 7 {
			_, _ = co.EstimatedModel()
		} else {
			_ = co.QueryProb(x)
		}
		n++
		time.Sleep(interval)
	}
}
