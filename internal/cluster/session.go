package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"distbayes/internal/bn"
)

// The session core: the connection layer, per-site supervision and fold
// shared by Coordinator and Relay, and the owner of their goroutines (see
// "Session core and goroutine ownership" in the package comment).

// sessionRole is what the core calls into: the per-role meaning of the
// membership events and data frames the read loop decodes.
type sessionRole interface {
	// join handles one membership event for site arriving on p, kind being
	// a relayJoin* kind: a hello or resume handshake (direct, or forwarded
	// by a relay with inner the frameResume payload), a reattach, a Done
	// marker (inner the frameDone payload), or a detach. The core reports
	// a direct peer's death as a detach of its site and a relay peer's as
	// a detach of every site it carried. An error ends p's connection,
	// except errRunOver on a relay peer, which only refuses the one site.
	join(p *peer, site uint32, kind byte, inner []byte) error
	// fold merges one site's decoded counter updates arriving on p; it runs
	// on p's reader.
	fold(p *peer, site uint32, ups []Update) error
	// foldStruct merges one site's decoded structure statistics.
	foldStruct(site uint32, siteEvents uint64, ups []Update) error
	// frame notes one frame received after a handshake.
	frame()
	// fail reports a fatal session error: a handshake that speaks no known
	// protocol, or a dead listener.
	fail(err error)
	// relayStart is the base configuration a child relay receives.
	relayStart() StartConfig
}

// errRunOver is a join refused because the run has already finished.
var errRunOver = errors.New("cluster: run already finished")

// peer is one accepted connection: a site, or a relay carrying many sites.
type peer struct {
	raw net.Conn
	c   *conn
	// relay marks a relay's connection: control frames for its sites travel
	// down wrapped in frameRelayCtl.
	relay bool
	// wmu serializes writers: join replies race the closing stats.
	wmu sync.Mutex
	// buckets is scratch owned by p's reader for the role's fold.
	buckets [][]Update
}

// send writes one control frame addressed to site and flushes it.
func (p *peer) send(site uint32, t byte, payload []byte) error {
	if p.relay {
		t, payload = frameRelayCtl, encodeRelayWrapped(site, t, payload)
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.c.send(t, payload)
}

// slot is the supervision record for one site id.
type slot struct {
	// peer carries the site; nil while it is disconnected.
	peer *peer
	// gen is bumped on every attach; a grace timer armed at a detach stands
	// down when the slot has moved on.
	gen uint64
	// done records that the site's Done marker was accepted (exactly once —
	// a replayed Done after a resume is deduplicated here).
	done bool
	// events is the site's event count, recorded at Done.
	events int64
}

// slotTable is the per-site supervision table.
type slotTable struct {
	mu    sync.Mutex
	slots []slot
	ndone int
	// active counts attached, not-done sites: the relay's flush round size.
	active int
}

// get returns a copy of site's slot.
func (t *slotTable) get(site uint32) slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slots[site]
}

// all returns a copy of every slot.
func (t *slotTable) all() []slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]slot(nil), t.slots...)
}

// attach makes p the peer of site and returns the slot together with the
// peer it superseded, if any.
func (t *slotTable) attach(site uint32, p *peer) (slot, *peer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[site]
	old := s.peer
	if old == nil && !s.done {
		t.active++
	}
	s.peer = p
	s.gen++
	return *s, old
}

// detach clears site's peer if it is still p and returns the slot as it
// was; ok is false when a newer attach already took the slot over.
func (t *slotTable) detach(site uint32, p *peer) (s slot, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := &t.slots[site]
	if cur.peer != p {
		return slot{}, false
	}
	cur.peer = nil
	if !cur.done {
		t.active--
	}
	return *cur, true
}

// markDone records site's Done marker. first reports whether this call
// recorded it, all whether every site is now done.
func (t *slotTable) markDone(site uint32, events int64) (first, all bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[site]
	if !s.done {
		s.done, s.events = true, events
		if s.peer != nil {
			t.active--
		}
		t.ndone++
		first = true
	}
	return first, t.ndone == len(t.slots)
}

// allDone reports whether every site's Done marker has been accepted.
func (t *slotTable) allDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ndone == len(t.slots)
}

// activeSites returns the number of attached, not-done sites.
func (t *slotTable) activeSites() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// session is the connection core of one Coordinator or Relay.
type session struct {
	ln    net.Listener
	role  sessionRole
	slots slotTable
	// counters and cells bound decoded counter ids and structure cells
	// (cells = 0: structure learning off); innerCap bounds one site-level
	// frame. Fixed by setLayout before the accept loop starts.
	counters, cells, innerCap uint32

	mu    sync.Mutex // guards conns and the closing of done
	conns map[net.Conn]struct{}
	done  chan struct{} // closed by stop
	wg    sync.WaitGroup
}

func newSession(ln net.Listener, role sessionRole) *session {
	return &session{ln: ln, role: role, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// setLayout sizes the slot table and fixes the frame bounds.
func (s *session) setLayout(sites int, counters, cells uint32) {
	s.slots.slots = make([]slot, sites)
	s.counters, s.cells = counters, cells
	s.innerCap = updatesPayloadCap(counters)
	if cells > 0 {
		s.innerCap = max(s.innerCap, structPayloadCap(cells))
	}
}

// enter registers the calling goroutine with the session; false once
// stopped. Every enter is paired with a wg.Done.
func (s *session) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped() {
		return false
	}
	s.wg.Add(1)
	return true
}

// spawn runs f on a goroutine the session owns; after stop it runs nothing.
func (s *session) spawn(f func()) bool {
	if !s.enter() {
		return false
	}
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

// track registers a connection for stop; false (and the connection
// closed) once stopped.
func (s *session) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped() {
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// drop closes a tracked connection and forgets it.
func (s *session) drop(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// stop closes the listener and every tracked connection, so every owned
// goroutine winds down. It does not wait and may run on an owned goroutine.
func (s *session) stop() {
	s.mu.Lock()
	if s.stopped() {
		s.mu.Unlock()
		return
	}
	close(s.done)
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.ln.Close()
	for c := range conns {
		c.Close()
	}
}

// wait joins every owned goroutine; call after stop, never from an owned
// goroutine.
func (s *session) wait() { s.wg.Wait() }

func (s *session) stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// acceptLoop admits connections until the listener closes.
func (s *session) acceptLoop() {
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			if !s.stopped() {
				s.role.fail(fmt.Errorf("cluster: accept: %w", err))
			}
			return
		}
		if !s.track(raw) || !s.spawn(func() { s.serve(raw) }) {
			s.drop(raw)
			return
		}
	}
}

// attach makes p the peer of site. Latest wins: a superseded direct
// connection is closed, and its reader's detach then finds the slot taken.
func (s *session) attach(site uint32, p *peer) slot {
	cur, old := s.slots.attach(site, p)
	if old != nil && old != p && !old.relay {
		s.drop(old.raw)
	}
	return cur
}

// serve runs one accepted connection: the handshake, then the read loop
// until the connection dies. A direct site's connection outlives its Done
// marker, idle, so the closing stats can still reach the site.
func (s *session) serve(raw net.Conn) {
	p := &peer{raw: raw, c: newConn(raw)}
	t, payload, err := p.c.readFrame()
	if err != nil {
		// The dialer vanished (or a fault cut the handshake frame): not a
		// protocol violation, just a dead connection.
		s.drop(raw)
		return
	}
	var site uint32
	kind, inner := relayJoinHello, []byte(nil)
	switch t {
	case frameHello:
		site, err = decodeHello(payload)
	case frameResume:
		var req resumeReq
		req, err = decodeResume(payload)
		site, kind, inner = req.Site, relayJoinResume, payload
	case frameRelayHello:
		_, err = decodeHello(payload)
		p.relay = true
	default:
		err = fmt.Errorf("cluster: first frame %d, want hello or resume", t)
	}
	if err == nil && !p.relay && site >= uint32(len(s.slots.slots)) {
		err = fmt.Errorf("cluster: site id %d out of range", site)
	}
	if err != nil {
		s.drop(raw)
		s.role.fail(err)
		return
	}

	if p.relay {
		// The relay derives its fold layout from the base configuration;
		// it goes out unwrapped, as the reply to the relay's own hello.
		if p.c.send(frameStart, encodeStart(s.role.relayStart())) == nil {
			p.c.setReadLimit(relayPayloadCap(uint32(len(s.slots.slots)), s.innerCap))
			// Death or garbage alike ends the link: the relay is expected
			// back, so its sites detach below and their grace timers run.
			_ = s.readRelay(p)
		}
		s.drop(raw)
		for site, sl := range s.slots.all() {
			if sl.peer == p {
				s.role.join(p, uint32(site), relayJoinDetach, nil)
			}
		}
		return
	}

	// Handshake done: widen the read limit from the control-frame bound to
	// the largest site-level frame the layout admits.
	p.c.setReadLimit(s.innerCap)
	err = s.role.join(p, site, kind, inner)
	if err == nil {
		if err = s.readSite(p, site); err == nil {
			return // Done accepted: stay attached, idle
		}
	}
	s.drop(raw)
	s.role.join(p, site, relayJoinDetach, nil)
}

// readSite consumes a direct site's frames until its Done marker (nil) or
// the connection's death (the error).
func (s *session) readSite(p *peer, site uint32) error {
	var ups []Update
	for {
		t, payload, err := p.c.readFrame()
		if err != nil {
			return fmt.Errorf("cluster: site %d stream: %w", site, err)
		}
		s.role.frame()
		switch t {
		case frameUpdates, frameUpdates2, frameStructStats:
			if ups, err = s.fold(p, site, t, payload, ups); err != nil {
				return err
			}
		case frameDone:
			return s.role.join(p, site, relayJoinDone, payload)
		default:
			return fmt.Errorf("cluster: site %d unexpected frame %d", site, t)
		}
	}
}

// readRelay consumes a relay's frames until its connection dies: wrapped
// joins, and grouped per-site data frames unwrapped into the same folds a
// direct site's frames take.
func (s *session) readRelay(p *peer) error {
	var ups []Update
	var groups []relayGroup
	sites := uint32(len(s.slots.slots))
	for {
		t, payload, err := p.c.readFrame()
		if err != nil {
			return err
		}
		s.role.frame()
		switch t {
		case frameRelayJoin:
			site, kind, inner, err := decodeRelayWrapped(payload)
			if err == nil && site >= sites {
				err = fmt.Errorf("cluster: relay forwarded site id %d out of range", site)
			}
			if err == nil {
				err = s.role.join(p, site, kind, inner)
			}
			if err != nil && err != errRunOver {
				return err
			}
		case frameRelayUpdates, frameRelayStruct:
			inner := frameUpdates2
			if t == frameRelayStruct {
				inner = frameStructStats
			}
			if groups, err = decodeRelayGroups(groups, payload, sites, s.innerCap); err != nil {
				return err
			}
			for _, g := range groups {
				if ups, err = s.fold(p, g.Site, inner, g.Payload, ups); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("cluster: relay unexpected frame %d", t)
		}
	}
}

// fold decodes one site-level data frame arriving on p into ups (reused)
// and hands it to the role.
func (s *session) fold(p *peer, site uint32, t byte, payload []byte, ups []Update) ([]Update, error) {
	var err error
	switch t {
	case frameUpdates:
		if ups, err = decodeUpdates(ups, payload); err == nil {
			err = s.role.fold(p, site, ups)
		}
	case frameUpdates2:
		if ups, err = decodeUpdates2(ups, payload, s.counters); err == nil {
			err = s.role.fold(p, site, ups)
		}
	case frameStructStats:
		if s.cells == 0 {
			return ups, fmt.Errorf("cluster: site %d sent struct stats but structure learning is off", site)
		}
		var siteEvents uint64
		if siteEvents, ups, err = decodeStructStats(ups, payload, s.cells); err == nil {
			err = s.role.foldStruct(site, siteEvents, ups)
		}
	}
	return ups, err
}

// maxVec is one site's monotone count vector under the idempotent
// max-merge every tier folds with: a cell only ever rises to the latest
// reported count, so replayed, duplicated or re-folded reports are
// absorbed. Per-site vectors are never summed across sites — the
// coordinator's trailing-gap adjustment is nonlinear per site. dirty marks
// cells raised since the last drain, for the relay's upstream flushes.
type maxVec struct {
	counts []int64
	dirty  []bool
	// any is set when a cell or pos rose since the last drain.
	any bool
	// pos is the site's stream position (structure statistics only),
	// max-merged like the counts.
	pos uint64
}

// merge max-merges ups into v, sizing it to n cells on first use, and
// passes each raised cell's increase to raised when it is non-nil.
func (v *maxVec) merge(n uint32, ups []Update, raised func(cell int, delta int64)) error {
	if v.counts == nil {
		v.counts, v.dirty = make([]int64, n), make([]bool, n)
	}
	for _, u := range ups {
		if u.Counter >= uint32(len(v.counts)) {
			return fmt.Errorf("cluster: counter %d out of range [0,%d)", u.Counter, len(v.counts))
		}
		if old := v.counts[u.Counter]; u.LocalCount > old {
			v.counts[u.Counter] = u.LocalCount
			v.dirty[u.Counter] = true
			v.any = true
			if raised != nil {
				raised(int(u.Counter), u.LocalCount-old)
			}
		}
	}
	return nil
}

// advance max-merges the site's stream position and returns its increase.
func (v *maxVec) advance(pos uint64) uint64 {
	if pos <= v.pos {
		return 0
	}
	d := pos - v.pos
	v.pos, v.any = pos, true
	return d
}

// drain appends the dirty cells, ascending, to dst and clears the marks.
func (v *maxVec) drain(dst []Update) []Update {
	for id, d := range v.dirty {
		if d {
			dst = append(dst, Update{Counter: uint32(id), LocalCount: v.counts[id]})
			v.dirty[id] = false
		}
	}
	v.any = false
	return dst
}

// markAll marks every nonzero cell dirty: the next drain re-ships the whole
// vector (free under max-merge).
func (v *maxVec) markAll() {
	for id, n := range v.counts {
		if n != 0 {
			v.dirty[id] = true
			v.any = true
		}
	}
}

// drainGroups is the relay's flush encoder: every changed per-site vector
// drains into one group (site = index, ascending), its payload built by enc.
func drainGroups(vecs []maxVec, enc func(v *maxVec, ups []Update) []byte) []relayGroup {
	var groups []relayGroup
	var ups []Update
	for i := range vecs {
		v := &vecs[i]
		if v.any {
			ups = v.drain(ups[:0])
			groups = append(groups, relayGroup{Site: uint32(i), Payload: enc(v, ups)})
		}
	}
	return groups
}

// encodeCountGroup and encodeStructGroup are drainGroups' encoders for
// frameRelayUpdates and frameRelayStruct.
func encodeCountGroup(_ *maxVec, ups []Update) []byte { return encodeUpdates2(nil, ups) }

func encodeStructGroup(v *maxVec, ups []Update) []byte {
	return encodeStructStats(nil, v.pos, ups)
}

// backoff is the redial schedule every dialing role (Site, FederatedSite,
// Relay) shares: up to attempts tries, retry n waiting base·2ⁿ capped at
// cap plus up to 50% jitter. The jitter comes from a seeded generator so
// two peers that fail together do not thunder back together — and so
// tests stay reproducible.
type backoff struct {
	attempts  int
	base, cap time.Duration
	rng       *bn.RNG
}

// newBackoff resolves zero settings to the defaults (8 attempts, 20ms,
// 1s).
func newBackoff(attempts int, base, cap time.Duration, seed uint64) *backoff {
	if attempts <= 0 {
		attempts = 8
	}
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	return &backoff{attempts: attempts, base: base, cap: cap, rng: bn.NewRNG(seed)}
}

// sleep waits out retry n (0-based), returning early when stop closes.
func (b *backoff) sleep(n int, stop <-chan struct{}) {
	d := b.base << uint(min(n, 20))
	if d > b.cap || d <= 0 {
		d = b.cap
	}
	t := time.NewTimer(d + time.Duration(b.rng.Float64()*0.5*float64(d)))
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// retry calls try until it reports no retry is due or the attempts run
// out, sleeping between tries; it returns try's last error.
func (b *backoff) retry(stop <-chan struct{}, try func() (again bool, err error)) error {
	var err error
	for n := 0; n < b.attempts; n++ {
		if n > 0 {
			b.sleep(n-1, stop)
		}
		var again bool
		if again, err = try(); !again {
			return err
		}
	}
	return err
}

// dial dials addr with retries.
func (b *backoff) dial(addr string) (net.Conn, error) {
	var raw net.Conn
	err := b.retry(nil, func() (bool, error) {
		var err error
		raw, err = net.Dial("tcp", addr)
		return err != nil, err
	})
	return raw, err
}
