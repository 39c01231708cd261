package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/chowliu"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

// clusterWorkload is a cluster run composed from its roles: coordinator,
// the byte-counting forwarder in front of it, optionally a relay between
// the sites and the forwarder, optionally a query server over the
// coordinator with an open-loop client mix, and the sites.
type clusterWorkload struct {
	cfg   cluster.Config
	relay bool
	// qps > 0 attaches a query server answering that many open-loop
	// requests per second, split over queryConns keep-alive connections.
	qps float64
	// learn marks a structure-learning run whose final learned tree must
	// contain every post-drift edge.
	learn bool

	ref      *reference
	driftNet *bn.Network
	bodies   []queryBody
	reqIDs   atomic.Uint64
}

// queryConns is the number of client connections of the serving workloads.
const queryConns = 2

// queryBody is one pre-encoded request of the query mix.
type queryBody struct{ path, body string }

func newClusterIngest() workload {
	return &clusterWorkload{cfg: cluster.Config{
		NetName: "alarm", Strategy: core.NonUniform, Eps: 0.1, Sites: 2,
		Events: 1_000_000, SiteBatchEvents: 128,
	}}
}

func newClusterServe() workload {
	return &clusterWorkload{
		cfg: cluster.Config{
			NetName: "munin", Strategy: core.NonUniform, Eps: 0.1, Sites: 2,
			Events: 600, SiteBatchEvents: 16, LatencyMicros: 80000,
		},
		qps: 800,
	}
}

func newRelayLearn() workload {
	return &clusterWorkload{
		cfg: cluster.Config{
			Strategy: core.NonUniform, Eps: 0.1, Sites: 2,
			Events: 400_000, SiteBatchEvents: 128,
			StructBatchEvents: 1024, DriftAfter: 0.5,
		},
		relay: true,
		learn: true,
	}
}

// The workloads fix their networks and ground-truth parameters; the seed
// draws the event streams (and the queries), so runs on different seeds
// measure the same workload on different samples of it.
const (
	cptSeed      = 0xC0DE
	driftCPTSeed = 0xD21F
	// learnNet and learnDriftNet are two random trees over the same 40
	// four-valued variables: the stream switches from the first to the
	// second halfway through.
	learnNet      = "tree:40:4:1"
	learnDriftNet = "tree:40:4:2"
)

func (w *clusterWorkload) prepare(seed uint64) error {
	w.cfg.CPTSeed = cptSeed
	w.cfg.StreamSeed = seed
	if w.learn {
		w.cfg.NetName = learnNet
		w.cfg.DriftNetName = learnDriftNet
		w.cfg.DriftCPTSeed = driftCPTSeed
	}
	model, err := modelFor(w.cfg.NetName, w.cfg.CPTSeed)
	if err != nil {
		return err
	}
	spec := streamSpec{model: model, sites: w.cfg.Sites, events: w.cfg.Events, seed: w.cfg.StreamSeed}
	if w.cfg.DriftNetName != "" {
		if spec.drift, err = modelFor(w.cfg.DriftNetName, w.cfg.DriftCPTSeed); err != nil {
			return err
		}
		spec.driftAfter = w.cfg.DriftAfter
		w.driftNet = spec.drift.Network()
	}
	if w.ref, err = newReference(spec, seed^0x9e3779b97f4a7c15, nil); err != nil {
		return err
	}
	if w.qps > 0 {
		w.bodies = queryMix(model.Network(), seed^0x11fe, 64)
	}
	return nil
}

// queryMix pre-encodes n requests: full-assignment /v1/queryprob in the CSV
// fast path alternating with /v1/subsetprob over small ancestrally closed
// subsets — the full-table scan and the targeted lookup.
func queryMix(nw *bn.Network, seed uint64, n int) []queryBody {
	var closures [][]int
	for i := 0; i < nw.Len() && len(closures) < 8; i++ {
		if set := nw.AncestralClosure([]int{i}); len(set) > 1 && len(set) <= 8 {
			closures = append(closures, set)
		}
	}
	rng := bn.NewRNG(seed)
	var x []int
	out := make([]queryBody, n)
	for i := range out {
		x = stream.RandomAssignment(nw, rng, x)
		if i%2 == 0 || len(closures) == 0 {
			vals := make([]string, len(x))
			for j, v := range x {
				vals[j] = strconv.Itoa(v)
			}
			out[i] = queryBody{"/v1/queryprob", strings.Join(vals, ",")}
			continue
		}
		set := closures[(i/2)%len(closures)]
		parts := make([]string, len(set))
		for j, v := range set {
			parts[j] = fmt.Sprintf("%q:%d", nw.Var(v).Name, x[v])
		}
		out[i] = queryBody{"/v1/subsetprob", `{"assign":{` + strings.Join(parts, ",") + `}}`}
	}
	return out
}

// timedSource is the ModelSource decorator of traced repetitions: it times
// every snapshot acquisition as a span and attributes its CPU to the
// cluster.snapshot layer.
type timedSource struct {
	serve.ModelSource
	tr *tracer
	mu sync.Mutex
	us []float64 // acquisition durations, µs
}

func (s *timedSource) AcquireSnapshot() (snap serve.Snapshot, err error) {
	sp := s.tr.begin("cluster.snapshot.acquire", 0, 0)
	s.tr.inNestedLayer("serve", "cluster.snapshot", func() { snap, err = s.ModelSource.AcquireSnapshot() })
	d := sp.end()
	s.mu.Lock()
	s.us = append(s.us, float64(d)/1e3)
	s.mu.Unlock()
	return snap, err
}

// repTimeout bounds one repetition's run; a run still going after it is
// stopped and reported as failed.
const repTimeout = 90 * time.Second

type serveOut struct {
	res cluster.Result
	err error
}

// clusterRun is one composed cluster whose handshakes have completed.
type clusterRun struct {
	co        *cluster.Coordinator
	fw        *forwarder
	relay     *cluster.Relay
	relayDone chan struct{}
	srv       *serve.Server
	timed     *timedSource // traced query runs only
	serveDone chan serveOut
	siteStats []cluster.Stats
	siteErrs  []error
	sites     sync.WaitGroup

	// Set by the forwarder hook.
	hookMu    sync.Mutex // the forwarder runs one goroutine per direction and connection
	starts    int
	setupEnd  time.Time
	cpu0      time.Duration
	handshook chan struct{}
	fresh     freshness
	doneAt    []time.Time
}

// start composes the roles of cfg — coordinator, forwarder, relay and query
// server as the workload asks — starts the sites, and returns once every
// handshake has completed. c.setupEnd is the moment the last handshake reply
// passed the forwarder going down (one frameStart per site, plus the relay's
// own, whose sites get theirs wrapped in frameRelayCtl): the forwarder stamps
// it, and the process CPU, itself, so the measurement does not wait for this
// goroutine to be scheduled while the sites already run. On error the
// returned run, if any, still needs close.
func (w *clusterWorkload) start(cfg cluster.Config, tr *tracer) (*clusterRun, error) {
	c := &clusterRun{
		relayDone: make(chan struct{}),
		serveDone: make(chan serveOut, 1),
		siteStats: make([]cluster.Stats, cfg.Sites),
		siteErrs:  make([]error, cfg.Sites),
		handshook: make(chan struct{}),
	}
	want := cfg.Sites
	if w.relay {
		want++
	}
	onFrame := func(up bool, t byte, at time.Time) {
		c.hookMu.Lock()
		defer c.hookMu.Unlock()
		switch {
		case !up && (t == frameStart || t == frameRelayCtl):
			if c.starts++; c.starts == want {
				c.setupEnd, c.cpu0 = at, cpuTime()
				close(c.handshook)
			}
		case up && (t == frameUpdates || t == frameUpdates2 || t == frameRelayUpdates):
			if w.qps > 0 {
				c.fresh.framePassed(at)
			}
		case up && t == frameDone:
			c.doneAt = append(c.doneAt, at)
		}
	}

	setupSpan := tr.begin("setup", 0, 0)
	defer setupSpan.end()
	var err error
	sp := tr.begin("cluster.NewCoordinator", setupSpan.id, 0)
	tr.inLayer("cluster.coordinator", func() { c.co, err = cluster.NewCoordinator(cfg, "127.0.0.1:0") })
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	tr.inLayer("bench.forwarder", func() { c.fw, err = newForwarder(c.co.Addr(), onFrame) })
	if err != nil {
		return c, fmt.Errorf("starting forwarder: %w", err)
	}
	siteAddr := c.fw.Addr()
	if w.relay {
		tr.inLayer("cluster.relay", func() {
			c.relay, err = cluster.NewRelay(cluster.RelayConfig{
				Parent: c.fw.Addr(), DialAttempts: 2, RetryCap: 50 * time.Millisecond,
			}, "127.0.0.1:0")
		})
		if err != nil {
			return c, fmt.Errorf("starting relay: %w", err)
		}
		go tr.inLayer("cluster.relay", func() {
			defer close(c.relayDone)
			_ = c.relay.Run() // returns ErrRelayClosed once closed
		})
		siteAddr = c.relay.Addr()
	}
	if w.qps > 0 {
		var src serve.ModelSource = serve.NewCoordinatorSource(c.co)
		if tr != nil {
			c.timed = &timedSource{ModelSource: src, tr: tr}
			src = c.timed
		}
		srv, err := serve.New(serve.Config{Source: src})
		if err == nil {
			tr.inLayer("serve", func() { err = srv.Start("127.0.0.1:0") })
		}
		if err != nil {
			return c, fmt.Errorf("starting query server: %w", err)
		}
		c.srv = srv
	}

	handshakes := tr.begin("handshakes", setupSpan.id, 0)
	go tr.inLayer("cluster.coordinator", func() {
		res, err := c.co.Serve()
		c.serveDone <- serveOut{res, err}
	})
	for i := 0; i < cfg.Sites; i++ {
		// Failure supervision is kept short: a run that loses a peer is a
		// failed repetition, not one to wait out.
		s := cluster.NewSite(uint32(i), siteAddr)
		s.MaxResumes, s.DialAttempts, s.RetryCap = 1, 2, 50*time.Millisecond
		c.sites.Add(1)
		go tr.inLayer("cluster.site", func() {
			defer c.sites.Done()
			c.siteStats[i], c.siteErrs[i] = s.Run()
		})
	}
	select {
	case <-c.handshook:
	case <-time.After(repTimeout):
		return c, fmt.Errorf("handshakes incomplete after %v", repTimeout)
	}
	handshakes.end()
	return c, nil
}

// wait returns the coordinator's result once the run completes (or fails
// it after repTimeout).
func (c *clusterRun) wait() serveOut {
	select {
	case out := <-c.serveDone:
		return out
	case <-time.After(repTimeout):
		c.co.Close()
		out := <-c.serveDone
		out.err = fmt.Errorf("run still going after %v: %w", repTimeout, out.err)
		return out
	}
}

// close stops every role and waits for it: the query server drains, the
// relay and forwarder stop, the coordinator closes, and the sites — which
// after a failure may be retrying a vanished peer — are joined last.
func (c *clusterRun) close() error {
	var err error
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = c.srv.Shutdown(ctx)
		cancel()
	}
	if c.relay != nil {
		c.relay.Close()
		<-c.relayDone
	}
	if c.fw != nil {
		c.fw.Close()
	}
	c.co.Close()
	c.sites.Wait()
	return err
}

// setupProbe times one set-up: the workload's roles composed and
// handshaken for a run of one event per site, which then completes.
func (w *clusterWorkload) setupProbe() (time.Duration, error) {
	cfg := w.cfg
	cfg.Events, cfg.LatencyMicros = cfg.Sites, 0
	t0 := time.Now()
	c, err := w.start(cfg, nil)
	if c == nil {
		return 0, err
	}
	if err == nil {
		err = c.wait().err
	}
	return c.setupEnd.Sub(t0), errors.Join(err, c.close())
}

func (w *clusterWorkload) rep(tr *tracer) *repResult {
	r := newRepResult()
	cfg := w.cfg
	t0 := time.Now()
	c, err := w.start(cfg, tr)
	if c != nil {
		defer func() { r.wrong(c.close()) }()
	}
	if err != nil {
		r.wrong(err)
		return r
	}
	r.vals["setup_s"] = c.setupEnd.Sub(t0).Seconds()
	w0 := c.setupEnd
	ingestSpan := tr.begin("ingest", 0, 0)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var lag []float64
	if tr != nil {
		// Coordinator lag: frames the forwarder has delivered that the
		// coordinator has not folded yet, sampled every millisecond.
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					lag = append(lag, float64(c.fw.rootFrames()-c.co.LiveStats().Frames))
				}
			}
		}()
	}
	loads := make([]loadSamples, queryConns)
	if w.qps > 0 {
		addr := c.srv.Addr()
		interval := time.Duration(float64(queryConns) * float64(time.Second) / w.qps)
		start := time.Now()
		for conn := 0; conn < queryConns; conn++ {
			hc, err := dialHTTP(addr)
			if err != nil {
				r.wrong(fmt.Errorf("dialing query server: %w", err))
				continue
			}
			reqs := make([][]byte, len(w.bodies))
			for i, b := range w.bodies {
				reqs[i] = encodePost(addr, b.path, b.body)
			}
			ol := openLoop{start: start, offset: time.Duration(conn) * interval / queryConns, interval: interval}
			bg.Add(1)
			go tr.inLayer("bench.loadgen", func() {
				defer bg.Done()
				defer hc.c.Close()
				loads[conn] = ol.run(stop, func(i int) error {
					sp := tr.begin("serve.query", 0, w.reqIDs.Add(1))
					a, err := hc.query(reqs[(conn*7+i)%len(reqs)])
					sp.end()
					if err != nil {
						return err
					}
					c.fresh.answered(a.Snapshot.Version, time.Now())
					return nil
				})
			})
		}
	}

	out := c.wait()
	wall := time.Since(w0)
	cpu := cpuTime() - c.cpu0
	ingestSpan.end()
	close(stop)
	bg.Wait()
	c.sites.Wait()
	c.fw.Close() // joins the forwarder's goroutines: its counts and hooks are final
	if lag != nil {
		r.samples["cluster.coordinator.lag_frames"] = lag
	}
	if out.err != nil {
		r.wrong(fmt.Errorf("coordinator: %w", out.err))
		return r
	}
	for i, err := range c.siteErrs {
		if err != nil {
			r.wrong(fmt.Errorf("site %d: %w", i, err))
		}
	}
	stats := out.res.Stats
	r.wrong(checkConservation(int64(cfg.Events), stats, c.siteStats))
	r.wrong(checkForwarded(c.fw.rootFrames(), stats))

	events := float64(stats.Events)
	r.vals["events"] = events
	upBytes := float64(c.fw.up.bytes.Load())
	r.vals["ingest_eps"] = events / wall.Seconds()
	r.vals["cpu_us_per_event"] = float64(cpu.Microseconds()) / events
	r.vals["updates_per_event"] = float64(stats.Updates) / events
	r.vals["frames_per_event"] = float64(stats.Frames) / events
	r.vals["bytes_per_event"] = upBytes / events
	r.vals["cluster.wire.bytes_per_frame"] = upBytes / float64(c.fw.up.total())

	snap := c.co.AcquireSnapshot()
	netw := snap.Network()
	mle, n := w.ref.relErr(func(q stream.Query) float64 {
		p := 1.0
		for _, i := range q.Set {
			p *= snap.Factor(i, q.X[i], netw.ParentIndex(i, q.X))
		}
		return p
	})
	snap.Release()
	r.vals["mle_rel_err"] = mle
	r.wrong(checkEnvelope(mle, cfg.Eps, n))

	if w.learn {
		learned, _, ok := c.co.LearnedStructure()
		if !ok {
			r.wrong(fmt.Errorf("no learned structure at the end of the run"))
		} else {
			recall, err := edgeRecall(chowliu.UndirectedEdges(w.driftNet), chowliu.UndirectedEdges(learned))
			r.vals["struct_edge_recall"] = recall
			r.wrong(err)
		}
		ss := c.co.StructLearnStats()
		r.vals["cluster.structure.entries_per_event"] = float64(ss.Entries) / events
		r.vals["cluster.structure.relearns"] = float64(ss.Relearns)
		r.vals["cluster.structure.swaps"] = float64(ss.Swaps)
	}
	if w.relay {
		if up := c.relay.UpFrames.Load(); up > 0 {
			r.vals["cluster.relay.fold_ratio"] = float64(c.relay.DownFrames.Load()) / float64(up)
		}
	}
	if len(c.doneAt) == cfg.Sites && !w.relay {
		first, last := c.doneAt[0], c.doneAt[0]
		for _, t := range c.doneAt {
			if t.Before(first) {
				first = t
			}
			if t.After(last) {
				last = t
			}
		}
		r.vals["cluster.site.run_skew"] = float64(last.Sub(w0)) / float64(first.Sub(w0))
	}

	if w.qps > 0 {
		var all loadSamples
		for _, l := range loads {
			all.merge(l)
		}
		r.attempted += all.attempted
		r.failed += all.failed
		if all.firstErr != nil {
			r.note(fmt.Errorf("%d of %d queries failed, first: %w", all.failed, all.attempted, all.firstErr))
		}
		r.vals["query_fail_ratio"] = float64(all.failed) / float64(max(all.attempted, 1))
		r.vals["queries"] = float64(all.attempted)
		r.samples["query_ms"] = all.latMs
		r.samples["loadgen.late_ms"] = all.lateMs
		if err := checkSchedule(quantile(all.lateMs, 0.99)); err != nil {
			r.failRep(err)
		}
		fr, unresolved := c.fresh.samples()
		r.samples["freshness_ms"] = fr
		r.vals["freshness_unresolved"] = float64(unresolved)
		st := c.srv.Stats()
		r.vals["serve.refreshes_per_s"] = float64(st.Snapshot.Refreshes) / wall.Seconds()
		r.vals["serve.shed"] = float64(st.Admission.Shed)
		r.vals["serve.deadline_exceeded"] = float64(st.Admission.DeadlineExceeded)
		if c.timed != nil {
			c.timed.mu.Lock()
			r.samples["cluster.snapshot.acquire_us"] = c.timed.us
			r.vals["cluster.snapshot.acquires_per_s"] = float64(len(c.timed.us)) / wall.Seconds()
			c.timed.mu.Unlock()
		}
	}
	return r
}

func (w *clusterWorkload) layerCPU(r *repResult, cpuNs map[string]int64) {
	events := r.vals["events"]
	if events == 0 {
		return
	}
	site := float64(cpuNs["cluster.site"]) / events
	r.vals["cluster.site.cpu_ns_per_event"] = site
	r.vals["ingest.cpu_ns_per_event"] = site
	r.vals["cluster.site.net_cpu_ns_per_event"] = site - w.ref.sampleNs
	r.vals["bn.sample_ns_per_event"] = w.ref.sampleNs
	r.vals["cluster.coordinator.cpu_ns_per_event"] = float64(cpuNs["cluster.coordinator"]) / events
	r.vals["bench.forwarder.cpu_ns_per_event"] = float64(cpuNs["bench.forwarder"]) / events
	if w.relay {
		r.vals["cluster.relay.cpu_ns_per_event"] = float64(cpuNs["cluster.relay"]) / events
	}
	if q := r.vals["queries"]; q > 0 {
		r.vals["serve.cpu_ns_per_query"] = float64(cpuNs["serve"]) / q
	}
}
