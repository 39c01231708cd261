package main

import (
	"fmt"
	"sync"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// trackerWorkload drives an in-process core.Tracker the way a library user
// does: one goroutine ingests pre-generated events as fast as it can while
// another issues queries on an open-loop schedule. It uses only the Config
// fields every ingestion path keeps (Strategy, Eps, Sites, Seed, Shards).
type trackerWorkload struct {
	netName string
	cfg     core.Config
	// poolEvents are drawn once (half per site) and replayed passes times per
	// repetition; batch is the UpdateEvents call size.
	poolEvents, passes, batch int
	// qps is the offered query rate; every 8th query is an EstimatedModel.
	qps float64

	netw    *bn.Network
	pool    []core.Event
	assigns [][]int
	ref     *reference
}

func newTrackerMixed() workload {
	return &trackerWorkload{
		netName: "hepar2",
		cfg:     core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: 2, Shards: 2},
		// 4Ki events replayed 32 times per repetition: a pool small enough
		// to stay in cache, so reading the inputs costs the ingest loop
		// little memory traffic of its own, and repetitions short enough
		// that a run's median rests on a few dozen of them.
		poolEvents: 1 << 12, passes: 32, batch: 256,
		qps: 1000,
	}
}

func (w *trackerWorkload) prepare(seed uint64) error {
	w.cfg.Seed = seed
	model, err := modelFor(w.netName, cptSeed)
	if err != nil {
		return err
	}
	w.netw = model.Network()
	spec := streamSpec{model: model, sites: w.cfg.Sites, events: w.poolEvents, seed: seed}
	// The reference tracker sees the pool once; replaying it scales every
	// count by the same factor, which leaves the MLE unchanged.
	w.pool = make([]core.Event, 0, w.poolEvents)
	keep := func(site int, batch [][]int) {
		for _, x := range batch {
			w.pool = append(w.pool, core.Event{Site: site, X: append([]int(nil), x...)})
		}
	}
	if w.ref, err = newReference(spec, seed^0x9e3779b97f4a7c15, keep); err != nil {
		return err
	}
	// Interleave the sites, as one pump draining a merged stream would.
	half := len(w.pool) / 2
	mixed := make([]core.Event, 0, len(w.pool))
	for i := 0; i < half; i++ {
		mixed = append(mixed, w.pool[i], w.pool[half+i])
	}
	w.pool = append(mixed, w.pool[2*half:]...)
	rng := bn.NewRNG(seed ^ 0x11fe)
	w.assigns = make([][]int, 256)
	for i := range w.assigns {
		w.assigns[i] = stream.RandomAssignment(w.netw, rng, nil)
	}
	return nil
}

// setupProbe times one set-up: constructing the tracker.
func (w *trackerWorkload) setupProbe() (time.Duration, error) {
	t0 := time.Now()
	_, err := core.NewTracker(w.netw, w.cfg)
	return time.Since(t0), err
}

func (w *trackerWorkload) rep(tr *tracer) *repResult {
	r := newRepResult()
	sp := tr.begin("setup", 0, 0)
	t0 := time.Now()
	t, err := core.NewTracker(w.netw, w.cfg)
	if err != nil {
		r.wrong(fmt.Errorf("creating tracker: %w", err))
		return r
	}
	r.vals["setup_s"] = time.Since(t0).Seconds()
	sp.end()

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	var load loadSamples
	var modelUs, callUs []float64 // traced repetitions only
	cpu0 := cpuTime()
	w0 := time.Now()
	qwg.Add(1)
	go tr.inLayer("core.query", func() {
		defer qwg.Done()
		ol := openLoop{start: w0, interval: time.Duration(float64(time.Second) / w.qps)}
		load = ol.run(stop, func(i int) error {
			if i%8 == 7 {
				sp := tr.begin("core.EstimatedModel", 0, 0)
				m, err := t.EstimatedModel()
				if d := sp.end(); tr != nil {
					modelUs = append(modelUs, float64(d)/1e3)
				}
				if err == nil && m == nil {
					err = fmt.Errorf("EstimatedModel returned no model")
				}
				return err
			}
			sp := tr.begin("core.QueryProb", 0, 0)
			p := t.QueryProb(w.assigns[i%len(w.assigns)])
			sp.end()
			return checkProb(p)
		})
	})
	var events int64
	tr.inLayer("core.ingest", func() {
		for p := 0; p < w.passes; p++ {
			for off := 0; off < len(w.pool); off += w.batch {
				b := w.pool[off:min(off+w.batch, len(w.pool))]
				sp := tr.begin("core.UpdateEvents", 0, 0)
				t.UpdateEvents(b)
				if d := sp.end(); tr != nil {
					callUs = append(callUs, float64(d)/1e3)
				}
				events += int64(len(b))
			}
		}
	})
	wall := time.Since(w0)
	cpu := cpuTime() - cpu0
	close(stop)
	qwg.Wait()

	if got := t.Events(); got != events {
		r.wrong(fmt.Errorf("tracker counted %d events, ingested %d", got, events))
	}
	r.vals["events"] = float64(events)
	r.vals["ingest_eps"] = float64(events) / wall.Seconds()
	r.vals["cpu_us_per_event"] = float64(cpu.Microseconds()) / float64(events)
	r.vals["updates_per_event"] = float64(t.Messages().Total()) / float64(events)
	mle, n := w.ref.relErr(func(q stream.Query) float64 { return t.QuerySubsetProb(q.Set, q.X) })
	r.vals["mle_rel_err"] = mle
	r.wrong(checkEnvelope(mle, w.cfg.Eps, n))

	r.attempted += load.attempted
	r.failed += load.failed
	if load.firstErr != nil {
		r.wrong(fmt.Errorf("%d of %d queries failed, first: %w", load.failed, load.attempted, load.firstErr))
	}
	r.vals["query_fail_ratio"] = float64(load.failed) / float64(max(load.attempted, 1))
	r.vals["queries"] = float64(load.attempted)
	r.samples["query_ms"] = load.latMs
	r.samples["loadgen.late_ms"] = load.lateMs
	if err := checkSchedule(quantile(load.lateMs, 0.99)); err != nil {
		r.failRep(err)
	}
	if tr != nil {
		var sum float64
		for _, d := range callUs {
			sum += d
		}
		r.vals["core.ingest.ns_per_event"] = sum * 1e3 / float64(events)
		r.samples["core.ingest.call_us"] = callUs
		r.samples["core.estimated_model_us"] = modelUs
	}
	return r
}

func (w *trackerWorkload) layerCPU(r *repResult, cpuNs map[string]int64) {
	events := r.vals["events"]
	if events == 0 {
		return
	}
	r.vals["ingest.cpu_ns_per_event"] = float64(cpuNs["core.ingest"]) / events
	r.vals["bn.sample_ns_per_event"] = w.ref.sampleNs
	if q := r.vals["queries"]; q > 0 {
		r.vals["core.query.cpu_ns_per_query"] = float64(cpuNs["core.query"]) / q
	}
}
