package main

import (
	"fmt"
	"math"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// streamSpec describes the per-site event streams of a cluster run exactly as
// the sites derive them (internal/cluster/site.go): site i draws its share of
// the events from stream.NewSiteTraining(model, i, seed) and, with drift, the
// events from position ⌊driftAfter·share⌋ on from
// stream.NewSiteTraining(drift, i, seed^driftStreamSalt).
type streamSpec struct {
	model, drift *bn.Model
	sites        int
	events       int
	seed         uint64
	driftAfter   float64
}

// driftStreamSalt is the seed derivation a cluster site uses for its
// post-drift stream.
const driftStreamSalt = 0xd21f7a3c5e9b11

// share is the number of events site i generates (an even split, the first
// Events mod k sites taking one more).
func (s streamSpec) share(i int) int {
	n := s.events / s.sites
	if i < s.events%s.sites {
		n++
	}
	return n
}

// draw generates every site's stream and hands it to sink in batches of up to
// 256 events (the batch slices are reused; sink copies what it keeps). It
// returns the time spent in the bn.Sampler, per event.
func (s streamSpec) draw(sink func(site int, batch [][]int)) float64 {
	const batchLen = 256
	n := s.model.Network().Len()
	batch := make([][]int, batchLen)
	for i := range batch {
		batch[i] = make([]int, n)
	}
	var sampling time.Duration
	for site := 0; site < s.sites; site++ {
		base := stream.NewSiteTraining(s.model, site, s.seed)
		var post *stream.Training
		driftAt := s.share(site)
		if s.drift != nil {
			post = stream.NewSiteTraining(s.drift, site, s.seed^driftStreamSalt)
			driftAt = int(s.driftAfter * float64(s.share(site)))
		}
		for pos := 0; pos < s.share(site); {
			m := min(batchLen, s.share(site)-pos)
			t0 := time.Now()
			for j := 0; j < m; j++ {
				var x []int
				if pos+j < driftAt {
					_, x = base.Next()
				} else {
					_, x = post.Next()
				}
				copy(batch[j], x)
			}
			sampling += time.Since(t0)
			sink(site, batch[:m])
			pos += m
		}
	}
	return float64(sampling) / float64(s.events)
}

// modelFor builds a netgen network with ground-truth CPTs from cptSeed, as
// the cluster roles regenerate it from their configuration.
func modelFor(name string, cptSeed uint64) (*bn.Model, error) {
	netw, err := netgen.ByName(name)
	if err != nil {
		return nil, err
	}
	opt := netgen.DefaultCPTOptions()
	opt.Seed = cptSeed
	cpds, err := netgen.GenCPTs(netw, opt)
	if err != nil {
		return nil, err
	}
	return bn.NewModel(netw, cpds)
}

// reference is the exact MLE the tracked answers are compared with: an
// ExactMLE tracker fed the identical events, and the fixed query set.
type reference struct {
	exact    *core.Tracker
	queries  []stream.Query
	sampleNs float64 // bn.Sampler time per event while drawing the streams
}

// newReference feeds an ExactMLE tracker the streams of spec (outside any
// timed window), handing the same batches to keep if it is set, and draws
// the query set from the base model.
func newReference(spec streamSpec, querySeed uint64, keep func(site int, batch [][]int)) (*reference, error) {
	exact, err := core.NewTracker(spec.model.Network(), core.Config{Strategy: core.ExactMLE, Sites: spec.sites})
	if err != nil {
		return nil, err
	}
	ns := spec.draw(func(site int, batch [][]int) {
		exact.UpdateBatch(site, batch)
		if keep != nil {
			keep(site, batch)
		}
	})
	if exact.Events() != int64(spec.events) {
		return nil, fmt.Errorf("reference ingested %d events, want %d", exact.Events(), spec.events)
	}
	queries, err := stream.GenQueries(spec.model, stream.QueryOptions{Count: 1000, MinProb: 0.01, Seed: querySeed})
	if err != nil {
		return nil, err
	}
	return &reference{exact: exact, queries: queries, sampleNs: ns}, nil
}

// relErr is the mean of |P̂(x) − P_MLE(x)| / P_MLE(x) over the queries whose
// exact answer is non-zero, and how many those were.
func (r *reference) relErr(estimate func(q stream.Query) float64) (float64, int) {
	var sum float64
	n := 0
	for _, q := range r.queries {
		want := r.exact.QuerySubsetProb(q.Set, q.X)
		if want == 0 {
			continue
		}
		sum += math.Abs(estimate(q)-want) / want
		n++
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), n
}
