package cluster

import (
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// Layout assigns a dense global id to every distributed counter of a
// network: for each variable, first its J_i·K_i pair counters (in CPT order,
// pidx·J_i + value), then its K_i parent counters. Sites and the
// coordinator compute the same layout independently from the regenerated
// network, so counter ids never travel in full.
type Layout struct {
	net     *bn.Network
	pairOff []uint32
	parOff  []uint32
	total   uint32
	// eps[id] is the counter's error parameter under the chosen allocation.
	eps []float64
	// sections are the contiguous equal-eps id ranges (per variable: its
	// pair block, then its parent block) in ascending id order, covering
	// [0, total) exactly.
	sections []Section
}

// Section is one contiguous counter-id range sharing a single error
// parameter. Bulk walks over the whole counter space — the coordinator's
// snapshot rebuild — iterate sections so the per-id eps lookup hoists out
// of the inner loop (the coordinator-side sibling of
// counter.Bank.EstimateRange).
type Section struct {
	Lo, Hi uint32
	Eps    float64
}

// NewLayout computes the layout and per-counter error parameters for the
// given strategy and budget.
func NewLayout(net *bn.Network, strategy core.Strategy, eps float64) (*Layout, error) {
	alloc, err := core.Allocate(net, strategy, eps)
	if err != nil {
		return nil, err
	}
	l := &Layout{
		net:     net,
		pairOff: make([]uint32, net.Len()),
		parOff:  make([]uint32, net.Len()),
	}
	off := uint32(0)
	for i := 0; i < net.Len(); i++ {
		l.pairOff[i] = off
		off += uint32(net.Card(i) * net.ParentCard(i))
		l.parOff[i] = off
		off += uint32(net.ParentCard(i))
	}
	l.total = off
	l.eps = make([]float64, off)
	l.sections = make([]Section, 0, 2*net.Len())
	for i := 0; i < net.Len(); i++ {
		for c := 0; c < net.Card(i)*net.ParentCard(i); c++ {
			l.eps[l.pairOff[i]+uint32(c)] = alloc.EpsA[i]
		}
		for c := 0; c < net.ParentCard(i); c++ {
			l.eps[l.parOff[i]+uint32(c)] = alloc.EpsB[i]
		}
		l.sections = append(l.sections,
			Section{Lo: l.pairOff[i], Hi: l.parOff[i], Eps: alloc.EpsA[i]},
			Section{Lo: l.parOff[i], Hi: l.parOff[i] + uint32(net.ParentCard(i)), Eps: alloc.EpsB[i]})
	}
	return l, nil
}

// Sections returns the contiguous equal-eps ranges covering
// [0, NumCounters()) in ascending id order. Read-only.
func (l *Layout) Sections() []Section { return l.sections }

// NumCounters returns the total number of counters.
func (l *Layout) NumCounters() uint32 { return l.total }

// StripeRange returns the contiguous counter-id range [lo, hi) owned by
// stripe index of count under striped coordinator federation. The ranges
// partition [0, NumCounters()) exactly: lo = total·index/count rounded down,
// so every id belongs to exactly one stripe and adjacent stripes differ in
// size by at most one id. Both sides of a striped run compute the range from
// the same regenerated layout, so stripe bounds never travel on the wire.
func (l *Layout) StripeRange(index, count uint32) (lo, hi uint32) {
	if count <= 1 {
		return 0, l.total
	}
	lo = uint32(uint64(l.total) * uint64(index) / uint64(count))
	hi = uint32(uint64(l.total) * uint64(index+1) / uint64(count))
	return lo, hi
}

// PairID returns the id of A_i(value, pidx).
func (l *Layout) PairID(i, value, pidx int) uint32 {
	return l.pairOff[i] + uint32(pidx*l.net.Card(i)+value)
}

// ParID returns the id of A_i(pidx).
func (l *Layout) ParID(i, pidx int) uint32 {
	return l.parOff[i] + uint32(pidx)
}

// Eps returns the error parameter of a counter.
func (l *Layout) Eps(id uint32) float64 { return l.eps[id] }

// varEps returns the error parameters of variable i's pair counters and of
// its parent counters (its two sections).
func (l *Layout) varEps(i int) (pair, par float64) {
	return l.sections[2*i].Eps, l.sections[2*i+1].Eps
}

// reportProbLocal is the coordinator-free report probability: a site whose
// local count is n estimates the global count as k·n (uniform routing) and
// reports with p = min(1, √k/(ε'·k·n)). Exact counters (ε' = 0, the
// ExactMLE allocation) always report.
func reportProbLocal(k int, eps float64, localCount int64) float64 {
	return reportProbSqrtK(k, math.Sqrt(float64(k)), eps, localCount)
}

// reportProbSqrtK is reportProbLocal with the √k hoisted out, for the
// per-cell coordinator reads (same float operations, so hoisting does not
// change any value). It is also the definition the site's division-free
// decision (siteCounters.inc) reproduces exactly.
func reportProbSqrtK(k int, sqrtK, eps float64, localCount int64) float64 {
	if eps <= 0 {
		return 1
	}
	global := float64(k) * float64(localCount)
	if global <= 0 {
		return 1
	}
	p := sqrtK / (eps * global)
	if p > 1 {
		return 1
	}
	return p
}

// adjustment is the coordinator's trailing-gap correction for a site whose
// last reported local count is r: the expected number of unreported local
// increments is (1-p)/p at the report probability in force at count r.
func adjustment(k int, eps float64, r int64) float64 {
	return adjustmentSqrtK(k, math.Sqrt(float64(k)), eps, r)
}

// adjustmentSqrtK is adjustment with the √k hoisted out.
func adjustmentSqrtK(k int, sqrtK, eps float64, r int64) float64 {
	if r <= 0 {
		return 0
	}
	p := reportProbSqrtK(k, sqrtK, eps, r)
	return (1 - p) / p
}

// siteCounters is the flat site-side counter state of one stream processor:
// every local count in a single dense slice indexed by layout counter id,
// with the report-probability constants (k, √k and the decision band around
// √k) hoisted out of the per-increment path — the site-side mirror of the
// coordinator's flat counter banks. The caller passes each counter's ε',
// hoisted per variable, so no per-id error parameter is loaded.
type siteCounters struct {
	k, sqrtK float64
	// sqrtLo and sqrtHi are √k scaled by (1 ∓ 2⁻⁴⁰): a product u·b that
	// clears this band compares with √k exactly as u with √k/b would.
	sqrtLo, sqrtHi float64
	counts         []int64
}

func newSiteCounters(counters uint32, k int) *siteCounters {
	sqrtK := math.Sqrt(float64(k))
	return &siteCounters{
		k:      float64(k),
		sqrtK:  sqrtK,
		sqrtLo: sqrtK * (1 - 0x1p-40),
		sqrtHi: sqrtK * (1 + 0x1p-40),
		counts: make([]int64, counters),
	}
}

// inc records one local increment for a counter with error parameter eps
// and decides whether the site reports it. The outcome and the RNG draws
// are those of
//
//	p := reportProbSqrtK(k, √k, eps, n); p >= 1 || rng.Float64() < p
//
// bit for bit — a coin is drawn only in the sampling regime, matching the
// historical draw order — but without the division. Let b = ε'·(k·n),
// rounded as reportProbSqrtK rounds it. Then p ≥ 1 exactly when b ≤ √k: a
// b above √k exceeds it by at least one ulp, a relative 2⁻⁵³, which puts
// the quotient √k/b below the rounding midpoint 1 − 2⁻⁵⁴. In the sampling
// regime u < p compares as u·b < √k, up to rounding: the quotient and the
// product are correctly rounded (relative error ≤ 2⁻⁵³) and u = m·2⁻⁵³ is
// exact, so a product that clears √k by the factor 1 ± 2⁻⁴⁰ decides as the
// quotient would. Only inside that band does inc divide.
func (s *siteCounters) inc(id uint32, eps float64, rng *bn.RNG) (localCount int64, report bool) {
	s.counts[id]++
	n := s.counts[id]
	b := eps * (s.k * float64(n))
	if b <= s.sqrtK {
		return n, true // p = 1: the exact phase, or an exact counter (ε' = 0)
	}
	u := rng.Float64()
	if v := u * b; v <= s.sqrtLo {
		return n, true
	} else if v >= s.sqrtHi {
		return n, false
	}
	return n, u < s.sqrtK/b
}
