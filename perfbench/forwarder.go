package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Frame types of the cluster wire protocol, as documented in
// internal/cluster/protocol.go. Every frame starts with a 5-byte header: the
// type byte and the little-endian u32 payload length.
const (
	frameStart        = 2
	frameUpdates      = 3
	frameDone         = 4
	frameUpdates2     = 6
	frameRelayCtl     = 12
	frameRelayUpdates = 13
	numFrameTypes     = 16 // room for every type the protocol defines
)

const frameHeaderLen = 5

// wireCounts tallies one direction's frames by type byte (types beyond the
// table share the last slot) and its bytes, headers included.
type wireCounts struct {
	frames [numFrameTypes]atomic.Int64
	bytes  atomic.Int64
}

func (c *wireCounts) add(t byte, n int64) {
	c.frames[min(int(t), numFrameTypes-1)].Add(1)
	c.bytes.Add(n)
}

func (c *wireCounts) total() int64 {
	var n int64
	for i := range c.frames {
		n += c.frames[i].Load()
	}
	return n
}

// forwarder is the byte-counting TCP proxy the benchmark puts in front of the
// root coordinator. It forwards both directions byte for byte and reads only
// the frame headers on the way: frames and bytes going up (into the root) and
// frames coming down (control replies, by which it sees handshakes finish).
type forwarder struct {
	ln     net.Listener
	target string
	// onFrame, when set, is called with the direction and type of every
	// frame, once the frame has been handed on or queued behind a write in
	// progress.
	onFrame func(up bool, t byte, at time.Time)

	up, down wireCounts
	conns    atomic.Int64

	mu     sync.Mutex
	open   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newForwarder(target string, onFrame func(up bool, t byte, at time.Time)) (*forwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{ln: ln, target: target, onFrame: onFrame, open: map[net.Conn]struct{}{}}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

func (f *forwarder) Addr() string { return f.ln.Addr().String() }

// rootFrames is the number of frames the root received after each
// connection's opening hello — the frames the coordinator counts in
// Stats.Frames.
func (f *forwarder) rootFrames() int64 { return f.up.total() - f.conns.Load() }

// Close stops accepting, severs every proxied connection and waits for the
// copy goroutines to exit.
func (f *forwarder) Close() {
	f.mu.Lock()
	f.closed = true
	for c := range f.open {
		c.Close()
	}
	f.mu.Unlock()
	f.ln.Close()
	f.wg.Wait()
}

func (f *forwarder) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		c.Close()
		return false
	}
	f.open[c] = struct{}{}
	return true
}

func (f *forwarder) acceptLoop() {
	defer f.wg.Done()
	for {
		client, err := f.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", f.target)
		if err != nil {
			client.Close()
			continue
		}
		if !f.track(client) || !f.track(server) {
			client.Close()
			server.Close()
			return
		}
		f.conns.Add(1)
		f.wg.Add(2)
		go f.pipe(server, client, true)
		go f.pipe(client, server, false)
	}
}

// pipe copies frames from src to dst until either side fails, then closes
// both so the opposite pipe ends too.
func (f *forwarder) pipe(dst, src net.Conn, up bool) {
	defer f.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		f.mu.Lock()
		delete(f.open, src)
		delete(f.open, dst)
		f.mu.Unlock()
	}()
	counts := &f.down
	if up {
		counts = &f.up
	}
	var onFrame func(t byte)
	if f.onFrame != nil {
		onFrame = func(t byte) { f.onFrame(up, t, time.Now()) }
	}
	_ = copyFrames(dst, src, counts, onFrame)
}

// copyFrames forwards length-prefixed frames from src to dst verbatim,
// counting each before it can reach dst. Writes are buffered and flushed
// whenever the reader has nothing more buffered, so a burst of frames costs
// one write while a lone frame is never held back. onFrame, if set, runs
// after a frame of type t has been flushed or queued behind a flush.
func copyFrames(dst io.Writer, src io.Reader, counts *wireCounts, onFrame func(t byte)) error {
	r := bufio.NewReaderSize(src, 64<<10)
	w := bufio.NewWriterSize(dst, 64<<10)
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return errors.Join(err, w.Flush())
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.CopyN(w, r, int64(n)); err != nil {
			return err
		}
		counts.add(hdr[0], int64(n)+frameHeaderLen)
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		if onFrame != nil {
			onFrame(hdr[0])
		}
	}
}
