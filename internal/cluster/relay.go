package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// ErrRelayClosed is returned by Relay.Run when Close is called.
var ErrRelayClosed = errors.New("cluster: relay closed")

// RelayConfig parameterizes one aggregation-tree relay.
type RelayConfig struct {
	// ID identifies the relay in diagnostics (it lives in its own namespace,
	// never colliding with site ids).
	ID uint32
	// Parent is the upstream address: the coordinator, or another relay for
	// deeper trees.
	Parent string
	// FlushInterval bounds how long folded state may wait before it ships
	// upstream — the staleness a site's report gains per tier, of the same
	// kind as the batching-window delay the (ε, δ) envelope already absorbs.
	// The relay flushes earlier whenever every active downstream child has
	// delivered a frame since the last flush (one full round), so under
	// steady streaming the upstream frame rate is the downstream rate
	// divided by the branching factor, and the interval only pays for
	// stragglers. 0 selects the default (2ms).
	FlushInterval time.Duration
	// DialAttempts bounds consecutive failed upstream dials; 0 selects the
	// default (8).
	DialAttempts int
	// RetryBase and RetryCap shape the upstream redial backoff, as on Site.
	// Zero selects the defaults (20ms, 1s).
	RetryBase, RetryCap time.Duration
}

// Relay is a mid-tier node of the aggregation tree (the sensor-network
// collaborative-training architecture): downstream it speaks the
// coordinator's side of the site protocol — sites (and deeper relays) dial
// it exactly as they would the coordinator, handshake unchanged — and
// upstream it is a single connection to its parent carrying the whole
// subtree's traffic.
//
// Per-site frameUpdates/frameUpdates2/frameStructStats frames fold locally
// into per-site cumulative vectors and ship upstream coalesced: one grouped
// frameRelayUpdates frame per flush round carries every dirty site, so the
// parent's frame rate divides by the relay's branching factor while every
// final estimate stays bit-identical (monotone counts, idempotent max-merge
// — the same invariants that make resume replays exact).
//
// The relay is disposable: it holds no state a site cannot regenerate. A
// severed upstream link reconnects and replays the full folded vectors plus
// the membership markers (joins still pending, reattaches, Done markers); a
// killed and restarted relay comes back empty and is repopulated by its
// sites' own resume replays. Both paths land in the coordinator's max-merge,
// so chaos on a relay link costs retransmitted frames, never accuracy.
//
// Downstream, the relay runs the same session core as the coordinator
// (session.go); its role is to bookkeep each join, forward it upstream and
// route the parent's reply back down, and to fold data frames into per-site
// max-merge vectors (maxVec) that a flusher ships upstream.
type Relay struct {
	cfg RelayConfig
	// s is the downstream connection layer and the owner of every relay
	// goroutine, Run's included.
	s *session

	// base is the run's base configuration, fixed by Run's first upstream
	// handshake.
	base StartConfig

	// mu guards the folded per-site state: counter and structure vectors,
	// and each site's pending join — its last hello/resume still awaiting
	// the parent's reply, re-forwarded if the upstream connection is
	// replaced first, so a join can never be lost in a reconnect window.
	mu      sync.Mutex
	counts  []maxVec
	structs []maxVec
	pending []pendingJoin

	// upMu serializes upstream writers; up/upRaw is the current upstream
	// connection, replaced on reconnect.
	upMu  sync.Mutex
	up    *conn
	upRaw net.Conn
	upBuf []byte

	// framesSinceFlush counts downstream data frames folded since the last
	// upstream flush; a flush round is ready once it reaches the number of
	// active downstream sites.
	framesSinceFlush atomic.Int64
	flushReq         chan struct{}

	// DownFrames / UpFrames count data frames folded from below and shipped
	// above — the branching-factor reduction, surfaced for tests and the
	// federation benchmark.
	DownFrames atomic.Int64
	UpFrames   atomic.Int64
}

// pendingJoin is a join awaiting the parent's reply (ok false: none).
type pendingJoin struct {
	kind  byte
	inner []byte
	ok    bool
}

// NewRelay validates cfg and starts listening on addr (use "127.0.0.1:0" in
// tests). Call Addr for the bound address — sites dial it exactly as they
// would the coordinator — and Run to connect upstream and serve.
func NewRelay(cfg RelayConfig, addr string) (*Relay, error) {
	if cfg.Parent == "" {
		return nil, fmt.Errorf("cluster: relay needs a parent address")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &Relay{cfg: cfg, flushReq: make(chan struct{}, 1)}
	r.s = newSession(ln, r)
	return r, nil
}

// Addr returns the listening address.
func (r *Relay) Addr() string { return r.s.ln.Addr().String() }

// Close stops the relay: the listener, the upstream connection and every
// downstream connection are closed, and Close returns once every relay
// goroutine — Run's included — has exited. Safe to call at any time and
// more than once. Sites that were routed through the relay reconnect
// elsewhere (or to a restarted relay on the same address) and resume.
func (r *Relay) Close() error {
	r.s.stop()
	r.s.wait()
	return nil
}

// Run connects upstream, learns the run's base configuration, and serves the
// subtree until Close. The upstream connection is supervised: a severed link
// redials with backoff and replays the relay's full folded state (safe —
// max-merge absorbs the replay), so a transient parent outage is invisible
// to the subtree. A parent that stays unreachable past the redial budget
// ends Run with the error and stops the relay, so its sites fail over.
func (r *Relay) Run() error {
	if !r.s.enter() {
		return ErrRelayClosed
	}
	defer r.s.wg.Done()
	defer r.s.stop()
	b := newBackoff(r.cfg.DialAttempts, r.cfg.RetryBase, r.cfg.RetryCap,
		0x9e1a7bad^(uint64(r.cfg.ID)*0x9e3779b97f4a7c15))
	if err := r.connectUp(b, true); err != nil {
		return err
	}
	r.s.spawn(r.s.acceptLoop)
	r.s.spawn(r.flushLoop)
	return r.upReadLoop(b)
}

// connectUp dials the parent, introduces the relay, and decodes the base run
// configuration. On the first connection it derives the fold layout; later
// reconnects verify the run still matches.
func (r *Relay) connectUp(b *backoff, first bool) error {
	return b.retry(r.s.done, func() (bool, error) {
		if r.s.stopped() {
			return false, ErrRelayClosed
		}
		raw, err := net.Dial("tcp", r.cfg.Parent)
		if err != nil {
			return true, fmt.Errorf("cluster: relay %d dial parent: %w", r.cfg.ID, err)
		}
		if !r.s.track(raw) {
			return false, ErrRelayClosed
		}
		again, err := r.handshakeUp(raw, first)
		if err != nil {
			r.s.drop(raw)
		}
		return again, err
	})
}

// handshakeUp runs the relay hello on a fresh upstream connection and, on
// success, installs it as the upstream link.
func (r *Relay) handshakeUp(raw net.Conn, first bool) (again bool, err error) {
	c := newConn(raw)
	payload, terminal, err := handshake(c, frameRelayHello, encodeHello(r.cfg.ID), frameStart)
	if err != nil {
		return !terminal, fmt.Errorf("cluster: relay %d dial parent: %w", r.cfg.ID, err)
	}
	base, err := decodeStart(payload)
	if err != nil {
		return false, err
	}
	if first {
		if err := r.initFromBase(base); err != nil {
			return false, err
		}
	} else if base.NetName != r.base.NetName || base.Sites != r.base.Sites {
		return false, fmt.Errorf("cluster: relay %d reconnected to a different run (%s/%d sites, was %s/%d)",
			r.cfg.ID, base.NetName, base.Sites, r.base.NetName, r.base.Sites)
	}
	// Ctl frames wrap small control payloads only; the grouped data frames
	// travel up, never down.
	c.setReadLimit(maxControlFrame + 16)
	r.upMu.Lock()
	if r.upRaw != nil {
		r.s.drop(r.upRaw)
	}
	r.upRaw, r.up = raw, c
	r.upMu.Unlock()
	return false, nil
}

// initFromBase derives the fold layout from the base run configuration —
// the same deterministic regeneration a site performs.
func (r *Relay) initFromBase(base StartConfig) error {
	netw, err := netgen.ByName(base.NetName)
	if err != nil {
		return err
	}
	layout, err := NewLayout(netw, core.Strategy(base.Strategy), base.Eps)
	if err != nil {
		return err
	}
	var cells uint32
	if base.StructBatchEvents > 0 {
		sl, err := NewStructLayout(netw)
		if err != nil {
			return err
		}
		cells = sl.Cells()
	}
	r.base = base
	r.s.setLayout(int(base.Sites), layout.NumCounters(), cells)
	r.counts = make([]maxVec, base.Sites)
	r.structs = make([]maxVec, base.Sites)
	r.pending = make([]pendingJoin, base.Sites)
	return nil
}

// upReadLoop owns the upstream read side: it routes ctl frames down to the
// named site and reconnects (with full replay) when the link dies.
func (r *Relay) upReadLoop(b *backoff) error {
	for {
		r.upMu.Lock()
		c := r.up
		r.upMu.Unlock()
		t, payload, err := c.readFrame()
		if err != nil {
			if r.s.stopped() {
				return nil
			}
			if err := r.connectUp(b, false); err != nil {
				if r.s.stopped() {
					return nil
				}
				return err
			}
			r.replayUp()
			continue
		}
		if t != frameRelayCtl {
			// Unknown downstream control traffic: ignore (append-only
			// protocol discipline — a newer parent may know more frames).
			continue
		}
		site, innerType, inner, err := decodeRelayWrapped(payload)
		if err != nil || site >= uint32(len(r.pending)) {
			continue // garbage ctl: drop; the peer validates its own state
		}
		r.deliver(site, innerType, inner)
	}
}

// deliver routes one unwrapped control frame to the site's downstream peer
// (re-wrapped by peer.send when the next hop is a child relay).
func (r *Relay) deliver(site uint32, innerType byte, inner []byte) {
	if innerType == frameStart || innerType == frameResumeAck {
		r.mu.Lock()
		r.pending[site] = pendingJoin{}
		r.mu.Unlock()
	}
	if p := r.s.slots.get(site).peer; p != nil {
		p.send(site, innerType, inner)
	}
}

// forwardJoin ships one wrapped join upstream. Write errors are dropped: the
// upstream reader notices the dead link and the reconnect replay re-forwards
// every join that still matters (pending ones, reattaches, Done markers).
func (r *Relay) forwardJoin(site uint32, kind byte, inner []byte) {
	payload := encodeRelayWrapped(site, kind, inner)
	r.upMu.Lock()
	if r.up != nil {
		r.up.send(frameRelayJoin, payload)
	}
	r.upMu.Unlock()
}

// replayUp re-establishes the subtree's state on a fresh upstream
// connection, in the order the coordinator relies on: membership first
// (pending joins re-forwarded verbatim, already-admitted sites reattached),
// then the full folded vectors, then the Done markers — so a Done can never
// overtake the final counts it summarizes.
func (r *Relay) replayUp() {
	type j struct {
		site  uint32
		kind  byte
		inner []byte
	}
	var joins, dones []j
	slots := r.s.slots.all()
	r.mu.Lock()
	for i, sl := range slots {
		site := uint32(i)
		switch pj := r.pending[i]; {
		case pj.ok:
			joins = append(joins, j{site, pj.kind, pj.inner})
		case sl.peer != nil || sl.done:
			joins = append(joins, j{site, relayJoinReattach, nil})
		}
		// Full replay: counts are monotone and the fold is max-merge, so
		// over-shipping is free.
		r.counts[i].markAll()
		r.structs[i].markAll()
		if sl.done {
			dones = append(dones, j{site, relayJoinDone, encodeDone(site, sl.events)})
		}
	}
	r.mu.Unlock()
	for _, x := range joins {
		r.forwardJoin(x.site, x.kind, x.inner)
	}
	r.flushUp()
	for _, x := range dones {
		r.forwardJoin(x.site, x.kind, x.inner)
	}
}

// relayStart is the base configuration a child relay receives: the one
// the relay got from its own parent.
func (r *Relay) relayStart() StartConfig { return r.base }

// frame and fail are no-ops: a relay counts folds, not frames, and a
// malformed downstream dialer or a dead listener only costs that
// connection.
func (r *Relay) frame()     {}
func (r *Relay) fail(error) {}

// join is the relay's side of every membership event, from a direct site
// or a child relay alike: bookkeep it and pass it up.
func (r *Relay) join(p *peer, site uint32, kind byte, inner []byte) error {
	switch kind {
	case relayJoinHello, relayJoinResume, relayJoinReattach:
		r.s.attach(site, p)
		pj := pendingJoin{kind: kind, inner: inner, ok: true}
		if kind == relayJoinReattach {
			pj = pendingJoin{} // reattaches expect no reply
		}
		r.mu.Lock()
		r.pending[site] = pj
		r.mu.Unlock()
		r.forwardJoin(site, kind, inner)
		return nil
	case relayJoinDone:
		_, events, err := decodeDone(inner)
		if err != nil {
			return err
		}
		r.s.slots.markDone(site, events)
		// Flush first: frames on one connection are processed in order, so
		// the final counts precede the marker upstream.
		r.flushUp()
		r.forwardJoin(site, relayJoinDone, inner)
		return nil
	case relayJoinDetach:
		// Forwarded so the coordinator arms the site's grace timer.
		if slot, ok := r.s.slots.detach(site, p); ok && !slot.done && !r.s.stopped() {
			r.forwardJoin(site, relayJoinDetach, nil)
		}
		return nil
	}
	return fmt.Errorf("cluster: relay %d: join kind %d for site %d", r.cfg.ID, kind, site)
}

// fold and foldStruct max-merge one site's decoded counter updates or
// structure statistics into its folded vector and signal the flusher.
func (r *Relay) fold(_ *peer, site uint32, ups []Update) error {
	return r.merge(&r.counts[site], r.s.counters, site, 0, ups)
}

func (r *Relay) foldStruct(site uint32, siteEvents uint64, ups []Update) error {
	return r.merge(&r.structs[site], r.s.cells, site, siteEvents, ups)
}

func (r *Relay) merge(v *maxVec, n, site uint32, pos uint64, ups []Update) error {
	r.mu.Lock()
	v.advance(pos)
	err := v.merge(n, ups, nil)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: relay %d: site %d: %w", r.cfg.ID, site, err)
	}
	r.DownFrames.Add(1)
	r.framesSinceFlush.Add(1)
	select {
	case r.flushReq <- struct{}{}:
	default:
	}
	return nil
}

// flushLoop ships folded state upstream: immediately once a full round of
// active children has reported since the last flush, or after FlushInterval
// for stragglers — so steady streaming coalesces at the branching factor and
// a quiet tail still drains promptly.
func (r *Relay) flushLoop() {
	interval := r.cfg.FlushInterval
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	// Stop and Reset leave no stale tick behind (Go ≥ 1.23 timers).
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	armed := false
	for {
		select {
		case <-r.s.done:
			return
		case <-r.flushReq:
			active := r.s.slots.activeSites()
			if active > 0 && r.framesSinceFlush.Load() >= int64(active) {
				r.flushUp()
				timer.Stop()
				armed = false
			} else if !armed {
				timer.Reset(interval)
				armed = true
			}
		case <-timer.C:
			armed = false
			r.flushUp()
		}
	}
}

// flushUp ships every dirty per-site folded vector upstream as one grouped
// frame (plus one grouped struct frame when the overlay is on). The upstream
// lock is held from the drain to the write, so whatever one flush drained
// reaches the link before any later upstream write — a site's Done marker,
// forwarded right after its final flush, can never overtake counts a
// concurrent flush drained first. Dirty flags clear before the write: if
// the write fails the upstream link is dead, and the reconnect replay
// re-marks every nonzero count dirty — nothing is lost, at the cost of
// re-shipping (free under max-merge).
func (r *Relay) flushUp() {
	r.framesSinceFlush.Store(0)
	r.upMu.Lock()
	defer r.upMu.Unlock()
	r.mu.Lock()
	groups := drainGroups(r.counts, encodeCountGroup)
	sgroups := drainGroups(r.structs, encodeStructGroup)
	r.mu.Unlock()
	ok := true
	ship := func(t byte, groups []relayGroup) {
		if !ok || len(groups) == 0 {
			return
		}
		r.upBuf = encodeRelayGroups(r.upBuf, groups)
		if ok = r.up.writeFrame(t, r.upBuf) == nil; ok {
			r.UpFrames.Add(1)
		}
	}
	ship(frameRelayUpdates, groups)
	ship(frameRelayStruct, sgroups)
	if ok && len(groups)+len(sgroups) > 0 {
		r.up.flush()
	}
}
