package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// ErrSiteCrashed is returned by Site.Run when the CrashAfterEvents chaos
// hook fires: the site stops dead at a deterministic stream position without
// sending its Done marker — the tests' stand-in for kill -9 of a site
// process. A fresh Site for the same id restarted against the coordinator
// rejoins with a hello and replays its stream from event zero; per-site
// determinism makes the replayed report decisions identical, so the run's
// final estimates are unchanged.
var ErrSiteCrashed = errors.New("cluster: site crashed (chaos hook)")

// Site is one stream-receiving processor of the monitoring system. It
// connects to the coordinator, receives its StartConfig, generates its share
// of the training stream locally, and runs the site half of the counter
// protocol.
//
// The connection is supervised: a transient dial failure retries with
// exponential backoff and deterministic jitter, and a connection lost
// mid-run reconnects with a protocol-v3 resume handshake — the site keeps
// its stream position and counter state across reconnects, replays its
// latest decided per-counter local counts in one frameUpdates2 frame (safe:
// counts are monotone and the coordinator's fold is max-merge, so the
// replay is idempotent), and continues the stream where it stopped.
type Site struct {
	id   uint32
	addr string

	// MaxResumes bounds *consecutive* reconnect attempts that make no stream
	// progress; 0 selects the default (32). A resume that advances the
	// stream position resets the budget, so a long run under repeated
	// connection faults survives any number of cuts as long as each
	// connection gets some work done — only a genuine livelock (the
	// coordinator gone for good, or cuts faster than progress) drains the
	// budget, and Run then returns the last connection error.
	MaxResumes int
	// DialAttempts bounds consecutive failed dials per connection attempt; 0
	// selects the default (8).
	DialAttempts int
	// RetryBase and RetryCap shape the exponential backoff between dial
	// attempts (and between resume attempts): the nth retry waits
	// RetryBase·2ⁿ plus up to 50% deterministic jitter, capped at RetryCap.
	// Zero selects the defaults (20ms, 1s).
	RetryBase, RetryCap time.Duration
	// CrashAfterEvents, when nonzero, makes Run return ErrSiteCrashed as
	// soon as the site's stream position reaches this many events, without
	// sending Done — a deterministic chaos hook (stream positions do not
	// depend on timing, so the crash point is exactly reproducible).
	CrashAfterEvents uint64
}

// NewSite prepares a site with the given id targeting the coordinator's
// address.
func NewSite(id uint32, addr string) *Site { return &Site{id: id, addr: addr} }

// siteRun is the state a site keeps across reconnects: the decoded run
// configuration, the regenerated model and layout, the approximate-counter
// state, the stream position, and — the crux of crash safety — lastReported,
// the latest *decided* report per counter. Replaying lastReported on resume
// restores the coordinator's row for this site to exactly the value an
// uninterrupted run would have reached, because the final matrix cell only
// ever holds the latest decided report (monotone counts, max-merge fold).
type siteRun struct {
	cfg      StartConfig
	netw     *bn.Network
	layout   *Layout
	counts   *siteCounters
	rng      *bn.RNG
	training *stream.Training
	// lastReported[id] is the latest local count this site decided to
	// report for counter id (0 = never reported).
	lastReported []int64
	// next is the index of the next stream event to process.
	next uint64
	// doneSent records that the coordinator accepted this site's Done
	// marker (learned from a resume ack's resumeSiteDone flag).
	doneSent bool
	// window is the set of counter ids reported since the last drain, one
	// bit per id: a window of cfg.BatchEvents events in protocol v2, of one
	// event in v1. The counts to ship are read from lastReported, which
	// holds the latest decision (counts are monotone, so the latest subsumes
	// the window's earlier ones), and the drain walks the words in id order.
	window []uint64
	// structLayout/structCounts hold the structure-learning overlay's
	// cumulative pairwise co-occurrence counts (protocol v4; nil/empty with
	// learning off). Counts are monotone and shipped whole, so a replayed
	// frame max-merges to a no-op on the coordinator.
	structLayout *StructLayout
	structCounts []int64
	// drift is the post-drift generating stream (nil without drift); events
	// at positions ≥ cfg.DriftAtEvent are drawn from it instead of training.
	drift *stream.Training
	// scratch buffers reused across frames.
	ups []Update
	buf []byte
}

// newSiteRun regenerates the deterministic run state from a StartConfig.
func newSiteRun(id uint32, cfg StartConfig) (*siteRun, error) {
	netw, err := netgen.ByName(cfg.NetName)
	if err != nil {
		return nil, err
	}
	opt := netgen.DefaultCPTOptions()
	opt.Seed = cfg.CPTSeed
	cpds, err := netgen.GenCPTs(netw, opt)
	if err != nil {
		return nil, err
	}
	model, err := bn.NewModel(netw, cpds)
	if err != nil {
		return nil, err
	}
	layout, err := NewLayout(netw, core.Strategy(cfg.Strategy), cfg.Eps)
	if err != nil {
		return nil, err
	}
	st := &siteRun{
		cfg:    cfg,
		netw:   netw,
		layout: layout,
		counts: newSiteCounters(layout.NumCounters(), int(cfg.Sites)),
		rng:    bn.NewRNG(cfg.StreamSeed ^ (uint64(id) * 0x9e3779b97f4a7c15)),
		// The site's share of the stream is the same per-site sub-stream the
		// in-process parallel engine uses — one shared constructor guards the
		// cluster-vs-in-process equivalence.
		training:     stream.NewSiteTraining(model, int(id), cfg.StreamSeed),
		lastReported: make([]int64, layout.NumCounters()),
		window:       make([]uint64, (layout.NumCounters()+63)/64),
		ups:          make([]Update, 0, 2*netw.Len()),
		buf:          make([]byte, 0, 24*netw.Len()),
	}
	if cfg.StructBatchEvents > 0 {
		if st.structLayout, err = NewStructLayout(netw); err != nil {
			return nil, err
		}
		st.structCounts = make([]int64, st.structLayout.Cells())
	}
	if cfg.DriftNetName != "" {
		driftNet, err := netgen.ByName(cfg.DriftNetName)
		if err != nil {
			return nil, err
		}
		if err := sameVariables(netw, driftNet); err != nil {
			return nil, fmt.Errorf("cluster: drift network %q incompatible with %q: %w",
				cfg.DriftNetName, cfg.NetName, err)
		}
		opt := netgen.DefaultCPTOptions()
		opt.Seed = cfg.DriftCPTSeed
		driftCPDs, err := netgen.GenCPTs(driftNet, opt)
		if err != nil {
			return nil, err
		}
		driftModel, err := bn.NewModel(driftNet, driftCPDs)
		if err != nil {
			return nil, err
		}
		// A fixed seed derivation keeps the drift stream deterministic across
		// restarts: both halves of the stream are pure functions of the
		// StartConfig and the absolute event position.
		st.drift = stream.NewSiteTraining(driftModel, int(id), cfg.StreamSeed^0xd21f7a3c5e9b11)
	}
	return st, nil
}

// step runs the site half of the counter protocol on the stream event x:
// every increment it triggers is decided (siteCounters.inc, in the fixed
// variable order that fixes the RNG draw order), and each decided report is
// recorded in lastReported and the window. step then marks the event
// consumed, before any fallible network write, so a broken connection can
// never replay a consumed sample (its decisions are in lastReported and
// covered by resume replay).
func (st *siteRun) step(x []int) {
	if st.structCounts != nil {
		st.structLayout.Accumulate(st.structCounts, x)
	}
	netw, layout := st.netw, st.layout
	for i := 0; i < netw.Len(); i++ {
		pidx := netw.ParentIndex(i, x)
		epsPair, epsPar := layout.varEps(i)
		st.decide(layout.PairID(i, x[i], pidx), epsPair)
		st.decide(layout.ParID(i, pidx), epsPar)
	}
	st.next++
}

// decide runs one increment of counter id and records a report.
func (st *siteRun) decide(id uint32, eps float64) {
	if n, report := st.counts.inc(id, eps, st.rng); report {
		st.lastReported[id] = n
		st.window[id>>6] |= 1 << (id & 63)
	}
}

// drain empties the window and returns its reports in ascending id order,
// each with its latest decided count, in the reused st.ups.
func (st *siteRun) drain() []Update {
	st.ups = st.ups[:0]
	for w, word := range st.window {
		if word == 0 {
			continue
		}
		st.window[w] = 0
		for ; word != 0; word &= word - 1 {
			id := uint32(w<<6 | bits.TrailingZeros64(word))
			st.ups = append(st.ups, Update{Counter: id, LocalCount: st.lastReported[id]})
		}
	}
	return st.ups
}

// encode serializes one ascending report run into st.buf in the run's
// protocol version and returns the frame type: fixed-width frameUpdates per
// event in v1, varint frameUpdates2 per window in v2.
func (st *siteRun) encode(ups []Update) byte {
	if st.cfg.BatchEvents > 0 {
		st.buf = encodeUpdates2(st.buf, ups)
		return frameUpdates2
	}
	st.buf = encodeUpdates(st.buf, ups)
	return frameUpdates
}

// nextEvent draws the site's next stream event: from the base generating
// model before the drift point, from the drift model at and after it. Both
// sub-streams advance only when consumed, and the switch is a pure function
// of the absolute position st.next, so a restart's replay from event zero
// regenerates the identical stream.
func (st *siteRun) nextEvent() []int {
	if st.drift != nil && st.next >= st.cfg.DriftAtEvent {
		_, x := st.drift.Next()
		return x
	}
	_, x := st.training.Next()
	return x
}

func (s *Site) maxResumes() int {
	if s.MaxResumes > 0 {
		return s.MaxResumes
	}
	return 32
}

// Run connects, processes the configured stream, and returns the
// coordinator's closing Stats. Run supervises its connection: dial failures
// retry with backoff, and a connection lost mid-run resumes (see the Site
// doc comment) until MaxResumes is exhausted.
func (s *Site) Run() (Stats, error) {
	b := newBackoff(s.DialAttempts, s.RetryBase, s.RetryCap, 0xc1a05c0de^(uint64(s.id)*0x9e3779b97f4a7c15))
	var st *siteRun
	stalled := 0 // consecutive resumes without stream progress
	for {
		// A coordinator that is briefly down (restarting from a checkpoint,
		// say) just costs a few retries instead of failing the site.
		raw, err := b.dial(s.addr)
		if err != nil {
			return Stats{}, fmt.Errorf("cluster: site %d dial: %w", s.id, err)
		}
		var before uint64
		if st != nil {
			before = st.next
		}
		stats, terminal, err := s.runConn(raw, &st)
		raw.Close()
		if terminal {
			return stats, err
		}
		if st != nil && st.next > before {
			stalled = 0 // the connection got work done; a fresh fault budget
		} else {
			stalled++
		}
		if stalled > s.maxResumes() {
			return Stats{}, fmt.Errorf("cluster: site %d out of resume attempts: %w", s.id, err)
		}
		b.sleep(stalled, nil)
	}
}

// runConn drives one connection: handshake (hello on the first connection,
// resume afterwards), the stream loop, and the wait for closing stats. A
// terminal return ends Run (success, a protocol violation, or the chaos
// crash hook); a non-terminal one means the connection died and the site
// should reconnect and resume.
func (s *Site) runConn(raw net.Conn, pst **siteRun) (Stats, bool, error) {
	c := newConn(raw)
	st := *pst

	if st == nil {
		// First connection: introduce ourselves, receive the run config.
		payload, terminal, err := handshake(c, frameHello, encodeHello(s.id), frameStart)
		if err != nil {
			return Stats{}, terminal, fmt.Errorf("cluster: site %d start: %w", s.id, err)
		}
		cfg, err := decodeStart(payload)
		if err != nil {
			return Stats{}, true, err
		}
		if st, err = newSiteRun(s.id, cfg); err != nil {
			return Stats{}, true, err
		}
		*pst = st
	} else {
		// Reconnect: resume with our stream position, then replay the
		// decided counts so the coordinator's row catches up to our state
		// regardless of what the dead connection actually delivered (or what
		// a restored-from-checkpoint coordinator remembers).
		payload, terminal, err := handshake(c, frameResume, encodeResume(resumeReq{Site: s.id, Events: st.next}), frameResumeAck)
		if err != nil {
			return Stats{}, terminal, fmt.Errorf("cluster: site %d resume: %w", s.id, err)
		}
		ack, err := decodeResumeAck(payload)
		if err != nil {
			return Stats{}, true, err
		}
		if ack.Flags&resumeRunComplete != 0 {
			// The run finished while we were away; the closing stats follow
			// on this connection.
			stats, err := awaitStats(c, s.id)
			return stats, err == nil, err
		}
		if ack.Flags&resumeSiteDone != 0 {
			st.doneSent = true
		}
		if !st.doneSent {
			if err := s.replay(c, st); err != nil {
				return Stats{}, false, err
			}
		}
	}

	if !st.doneSent && st.next < st.cfg.Events {
		up := &uplink{conns: []*conn{c}, los: []uint32{0, st.layout.NumCounters()}}
		if err := st.stream(up, s.CrashAfterEvents); err != nil {
			return Stats{}, errors.Is(err, ErrSiteCrashed), err
		}
	}
	if !st.doneSent {
		// The Done marker carries the site's full event count; the
		// coordinator deduplicates, so re-sending after a resume is safe.
		if err := c.writeFrame(frameDone, encodeDone(s.id, int64(st.cfg.Events))); err != nil {
			return Stats{}, false, err
		}
		if err := c.flush(); err != nil {
			return Stats{}, false, err
		}
	}
	stats, err := awaitStats(c, s.id)
	if err != nil {
		return Stats{}, false, err // stats lost in transit: resume and re-ask
	}
	return stats, true, nil
}

// replay ships the site's latest decided report for every counter it ever
// reported, as one coalesced frameUpdates2 frame. Idempotent by
// construction: every replayed count is ≤ the count an uninterrupted run
// would have delivered by now, and the coordinator keeps the max.
func (s *Site) replay(c *conn, st *siteRun) error {
	st.ups = st.ups[:0]
	for id, n := range st.lastReported {
		if n != 0 {
			st.ups = append(st.ups, Update{Counter: uint32(id), LocalCount: n})
		}
	}
	// The pending window is subsumed by lastReported (both record the
	// latest decision); drop it so it is not re-flushed at the next window
	// boundary.
	clear(st.window)
	if len(st.ups) > 0 {
		st.buf = encodeUpdates2(st.buf, st.ups)
		if err := c.writeFrame(frameUpdates2, st.buf); err != nil {
			return err
		}
	}
	// Re-ship the cumulative structure statistics too: a coordinator
	// restored from a checkpoint restarts with an empty MI window, and the
	// replayed cumulative counts (max-merged, so a no-op when nothing was
	// lost) put the per-site statistics back.
	if err := st.shipStructStats(c); err != nil {
		return err
	}
	return c.flush()
}

// shipStructStats sends the site's full cumulative pairwise co-occurrence
// vector and stream position as one frameStructStats frame (a no-op with
// structure learning off or before the first event). Cumulative counts make
// the frame self-contained: the coordinator max-merges it, so duplicates
// and replays are absorbed.
func (st *siteRun) shipStructStats(c *conn) error {
	if st.structCounts == nil || st.next == 0 {
		return nil
	}
	st.ups = st.ups[:0]
	for id, n := range st.structCounts {
		if n != 0 {
			st.ups = append(st.ups, Update{Counter: uint32(id), LocalCount: n})
		}
	}
	st.buf = encodeStructStats(st.buf, st.next, st.ups)
	if err := c.writeFrame(frameStructStats, st.buf); err != nil {
		return err
	}
	return c.flush()
}

// handshake sends one control frame and reads the reply, which must have
// type want. A failed write or read means the connection died (retry); a
// reply of another type is a protocol violation (terminal).
func handshake(c *conn, t byte, payload []byte, want byte) (reply []byte, terminal bool, err error) {
	if err = c.send(t, payload); err == nil {
		t, reply, err = c.readFrame()
	}
	if err != nil {
		return nil, false, err
	}
	if t != want {
		return nil, true, fmt.Errorf("got frame %d, want %d", t, want)
	}
	return reply, false, nil
}

// awaitStats reads frames until the coordinator's closing stats arrive.
func awaitStats(c *conn, site uint32) (Stats, error) {
	for {
		t, payload, err := c.readFrame()
		if err != nil {
			return Stats{}, fmt.Errorf("cluster: site %d waiting for stats: %w", site, err)
		}
		if t == frameStats {
			return decodeStats(payload)
		}
	}
}

// uplink is where a site's stream loop sends its frames: the one
// coordinator connection of a flat Site, or one connection per stripe of a
// FederatedSite, where conns[i] owns the counter ids [los[i], los[i+1]).
type uplink struct {
	conns []*conn
	los   []uint32
}

// ship frames one ascending report list: ascending ids make each stripe's
// share one contiguous run, and each non-empty run goes to its owner.
func (up *uplink) ship(st *siteRun, ups []Update) error {
	stripe := 0
	for lo := 0; lo < len(ups); {
		for ups[lo].Counter >= up.los[stripe+1] {
			stripe++
		}
		hi := lo
		for hi < len(ups) && ups[hi].Counter < up.los[stripe+1] {
			hi++
		}
		if err := up.conns[stripe].writeFrame(st.encode(ups[lo:hi]), st.buf); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

func (up *uplink) flush() error {
	for _, c := range up.conns {
		if err := c.flush(); err != nil {
			return err
		}
	}
	return nil
}

// stream is the site's stream loop, shared by every protocol version and by
// flat and federated sites. It steps each event from st.next (resuming where
// a lost connection stopped) and drains the window into frames at every
// window boundary: after each event in protocol v1, which ships one frame
// per event that triggered a report, and every cfg.BatchEvents events in
// v2, which coalesces the window into one frame. A report is therefore
// delayed by at most one window, a staleness of the same kind as the
// trailing gap the report probability already models. Window boundaries are
// absolute stream positions, so a reconnect does not shift the frame
// schedule. crashAt, when nonzero, is Site.CrashAfterEvents.
func (st *siteRun) stream(up *uplink, crashAt uint64) error {
	cfg := st.cfg
	window := uint64(max(cfg.BatchEvents, 1))
	latency := time.Duration(cfg.LatencyMicros) * time.Microsecond
	// Without artificial latency, v1 frames ride the 64KB connection
	// buffer; flush on a fixed event cadence so the coordinator's continuous
	// view stays fresh even on low-rate counters. The check runs even for
	// update-less events (the paper's no update, no message optimization),
	// so a frame buffered during a long quiet stretch still reaches the
	// coordinator promptly.
	const flushEvery = 1024

	for st.next < cfg.Events {
		if crashAt > 0 && st.next >= crashAt {
			return ErrSiteCrashed
		}
		st.step(st.nextEvent())
		e := st.next
		if e%window == 0 {
			if err := st.shipWindow(up, latency); err != nil {
				return err
			}
		}
		if st.structCounts != nil && e%uint64(cfg.StructBatchEvents) == 0 {
			if err := st.shipStructStats(up.conns[0]); err != nil {
				return err
			}
		}
		if latency == 0 && e%flushEvery == 0 {
			if err := up.flush(); err != nil {
				return err
			}
		}
	}
	// A final ship covers the tails shorter than one window and one struct
	// batch window.
	if err := st.shipWindow(up, latency); err != nil {
		return err
	}
	if err := st.shipStructStats(up.conns[0]); err != nil {
		return err
	}
	return up.flush()
}

// shipWindow drains the window into frames (nothing when it is empty). A
// v2 window frame is rare by construction: it is pushed out immediately so
// the coordinator's live view stays at most one window stale. With
// artificial latency every frame is pushed out and followed by the delay.
func (st *siteRun) shipWindow(up *uplink, latency time.Duration) error {
	ups := st.drain()
	if len(ups) == 0 {
		return nil
	}
	if err := up.ship(st, ups); err != nil {
		return err
	}
	if st.cfg.BatchEvents > 0 || latency > 0 {
		if err := up.flush(); err != nil {
			return err
		}
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	return nil
}
