package cluster

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// refDecide is the site's report decision as reportProbSqrtK defines it:
// the division, then a coin drawn only in the sampling regime.
func refDecide(k int, eps float64, n int64, rng *bn.RNG) bool {
	p := reportProbSqrtK(k, math.Sqrt(float64(k)), eps, n)
	return p >= 1 || rng.Float64() < p
}

// TestSiteDecisionMatchesDivision pins siteCounters.inc to the division it
// avoids: the same report decision and the same RNG state after every call,
// over k = 1..16, ε' = 0 and every per-variable ε' of the NonUniform
// allocations of alarm and munin, local counts up to 2³⁰, and adversarial
// ε' that put b = ε'·k·n within 2⁻⁴⁰ of √k (the edge of the exact phase) or
// u·b within 2⁻⁴⁰ of √k (the band where inc divides).
func TestSiteDecisionMatchesDivision(t *testing.T) {
	epss := []float64{0}
	for _, name := range []string{"alarm", "munin"} {
		netw, err := netgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := core.Allocate(netw, core.NonUniform, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		epss = append(epss, alloc.EpsA...)
		epss = append(epss, alloc.EpsB...)
	}
	slices.Sort(epss)
	epss = slices.Compact(epss)

	gen := bn.NewRNG(20181)
	var calls, bNear, ubNear int
	check := func(k int, eps float64, n int64, rng *bn.RNG) {
		t.Helper()
		sc := newSiteCounters(1, k)
		sc.counts[0] = n - 1
		ref := *rng
		want := refDecide(k, eps, n, &ref)
		got, report := sc.inc(0, eps, rng)
		if got != n || report != want || rng.State() != ref.State() {
			t.Fatalf("k=%d eps=%v n=%d: inc = (%d, %v) state %x, division = %v state %x",
				k, eps, n, got, report, rng.State(), want, ref.State())
		}
		calls++
		b := eps * (float64(k) * float64(n))
		if sc.sqrtLo < b && b < sc.sqrtHi {
			bNear++
		}
	}
	// nudge returns x moved by d units in the last place.
	nudge := func(x float64, d int) float64 {
		for ; d > 0; d-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; d < 0; d++ {
			x = math.Nextafter(x, 0)
		}
		return x
	}

	rng := bn.NewRNG(7)
	for k := 1; k <= 16; k++ {
		sqrtK := math.Sqrt(float64(k))
		for _, eps := range epss {
			// Every small count (the exact phase and its end), then counts
			// spread log-uniformly up to 2³⁰.
			for n := int64(1); n <= 64; n++ {
				check(k, eps, n, rng)
			}
			for i := 0; i < 64; i++ {
				check(k, eps, 1+int64(math.Exp2(30*gen.Float64())), rng)
			}
		}
		for i := 0; i < 2000; i++ {
			n := 1 + int64(math.Exp2(30*gen.Float64()))
			// b within a few ulps of √k, and scaled by 1 ± j·2⁻⁴⁴ — inside
			// the band — or by 1 ± 2⁻³⁹, just outside it.
			eps := sqrtK / (float64(k) * float64(n))
			for d := -3; d <= 3; d++ {
				check(k, nudge(eps, d), n, rng)
			}
			for _, f := range []float64{1 - 0x1p-39, 1 - 3*0x1p-44, 1 + 5*0x1p-44, 1 + 0x1p-39} {
				check(k, eps*f, n, rng)
			}
			// u·b within a few ulps of √k for the u the next draw yields.
			for d := -3; d <= 3; d++ {
				peek := *rng
				u := peek.Float64()
				if u == 0 || u > 0.99 {
					continue
				}
				e := nudge(sqrtK/(u*float64(k)*float64(n)), d)
				sc := newSiteCounters(1, k)
				if b := e * (float64(k) * float64(n)); b > sc.sqrtK && sc.sqrtLo < u*b && u*b < sc.sqrtHi {
					ubNear++
				}
				check(k, e, n, rng)
			}
		}
	}
	t.Logf("%d decisions; b within 2⁻⁴⁰ of √k %d times, u·b %d times", calls, bNear, ubNear)
	if bNear < 1000 || ubNear < 1000 {
		t.Errorf("adversarial inputs put b within 2⁻⁴⁰ of √k %d times and u·b %d times, want ≥ 1000 each", bNear, ubNear)
	}
}

// frames decodes, and so consumes, every frame written to b.
func frames(t *testing.T, b *bytes.Buffer) (types []byte, payloads [][]byte) {
	t.Helper()
	c := newConn(b)
	c.setReadLimit(maxFrame)
	for b.Len() > 0 || c.r.Buffered() > 0 {
		ft, p, err := c.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		types, payloads = append(types, ft), append(payloads, p)
	}
	return types, payloads
}

// mapWindow is the map-and-sort coalescing window the bitset replaced: the
// reference for the bytes a drained window must frame.
type mapWindow map[uint32]int64

func (m mapWindow) sorted() []Update {
	ups := make([]Update, 0, len(m))
	for id, n := range m {
		ups = append(ups, Update{Counter: id, LocalCount: n})
	}
	slices.SortFunc(ups, func(a, b Update) int { return int(a.Counter) - int(b.Counter) })
	return ups
}

// TestWindowDrainMatchesSortedMap drives random report sequences through
// the site's decide-and-record path and checks every drained window, framed
// whole and split across federation stripes, byte for byte against the
// sorted map window: mid-run resume replays clear the window on both sides.
func TestWindowDrainMatchesSortedMap(t *testing.T) {
	for _, stripes := range []int{1, 3} {
		st, err := newSiteRun(0, StartConfig{
			NetName: "alarm", CPTSeed: 0xC0DE, Strategy: uint8(core.NonUniform), Eps: 0.1,
			Sites: 2, Events: 1 << 20, StreamSeed: 5, BatchEvents: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := st.layout.NumCounters()
		bufs := make([]*bytes.Buffer, stripes)
		up := &uplink{los: make([]uint32, stripes+1)}
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
			up.conns = append(up.conns, newConn(bufs[i]))
			up.los[i], up.los[i+1] = st.layout.StripeRange(uint32(i), uint32(stripes))
		}
		gen := bn.NewRNG(uint64(stripes))
		// Half the counters start deep in the sampling regime, where most
		// increments go unreported and a window's count for an id is its
		// last decided one, not its current one.
		for id := range st.counts.counts {
			if gen.Intn(2) == 0 {
				st.counts.counts[id] = int64(gen.Intn(1 << 12))
			}
		}
		ref := mapWindow{}
		site := NewSite(0, "")
		for round := 0; round < 400; round++ {
			// A window of random increments; some counters hot, most cold.
			for j := gen.Intn(300); j > 0; j-- {
				id := uint32(gen.Intn(int(total)))
				if gen.Intn(2) == 0 {
					id %= 64
				}
				before := st.lastReported[id]
				st.decide(id, st.layout.Eps(id))
				if st.lastReported[id] != before {
					ref[id] = st.lastReported[id]
				}
			}
			if round%37 == 36 {
				if err := site.replay(newConn(&bytes.Buffer{}), st); err != nil {
					t.Fatal(err)
				}
				clear(ref)
			}
			want := ref.sorted()
			clear(ref)
			if err := up.ship(st, st.drain()); err != nil {
				t.Fatal(err)
			}
			if err := up.flush(); err != nil {
				t.Fatal(err)
			}
			for i, b := range bufs {
				lo, hi := up.los[i], up.los[i+1]
				run := slices.DeleteFunc(slices.Clone(want), func(u Update) bool { return u.Counter < lo || u.Counter >= hi })
				types, payloads := frames(t, b)
				if len(run) == 0 {
					if len(types) != 0 {
						t.Fatalf("stripes=%d round %d: stripe %d got %d frames for an empty run", stripes, round, i, len(types))
					}
					continue
				}
				if len(types) != 1 || types[0] != frameUpdates2 || !bytes.Equal(payloads[0], encodeUpdates2(nil, run)) {
					t.Fatalf("stripes=%d round %d: stripe %d frames differ from the sorted map window (%d entries)",
						stripes, round, i, len(run))
				}
			}
		}
	}
}

// BenchmarkSiteStep measures the site hot path alone — the counter
// decisions of each event, the window drain and the frame encode — on a
// pre-drawn pool of alarm events, in the cluster-ingest configuration (2
// sites, NonUniform ε = 0.1, 128-event windows). Event generation
// (bn.Sampler) runs before the timer starts.
func BenchmarkSiteStep(b *testing.B) {
	st, err := newSiteRun(0, StartConfig{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: uint8(core.NonUniform), Eps: 0.1,
		Sites: 2, Events: math.MaxUint64, StreamSeed: 1, BatchEvents: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := make([][]int, 1<<14)
	for i := range pool {
		pool[i] = slices.Clone(st.nextEvent())
	}
	window := uint64(st.cfg.BatchEvents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step(pool[i%len(pool)])
		if st.next%window == 0 {
			st.encode(st.drain())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
