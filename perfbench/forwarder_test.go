package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
)

// frame renders one wire frame: type byte, little-endian u32 length, payload.
func frame(t byte, payload []byte) []byte {
	out := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	out[0] = t
	binary.LittleEndian.PutUint32(out[1:], uint32(len(payload)))
	return append(out, payload...)
}

// TestForwarderByteForByte sends a stream of frames of every size class
// (empty, small, larger than the copy buffers) through the forwarder in both
// directions and checks that each side receives exactly the bytes sent and
// that the counts by type and the byte totals match.
func TestForwarderByteForByte(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	rng := bn.NewRNG(7)
	var up, down bytes.Buffer
	wantUp := map[byte]int64{}
	for i, size := range []int{0, 1, 17, 4096, 200 << 10, 3, 70 << 10, 0} {
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		t := byte(1 + i%9)
		up.Write(frame(t, payload))
		wantUp[t]++
		down.Write(frame(frameStart, payload[:min(size, 64)]))
	}

	var received []byte
	var srvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			srvErr = err
			return
		}
		defer c.Close()
		if _, err := c.Write(down.Bytes()); err != nil {
			srvErr = err
			return
		}
		received, srvErr = io.ReadAll(c)
	}()

	fw, err := newForwarder(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	c, err := net.Dial("tcp", fw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(up.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, down.Len())
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	wg.Wait()
	c.Close()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if !bytes.Equal(received, up.Bytes()) {
		t.Fatalf("server received %d bytes differing from the %d sent", len(received), up.Len())
	}
	if !bytes.Equal(got, down.Bytes()) {
		t.Fatalf("client received %d bytes differing from the %d sent", len(got), down.Len())
	}
	for typ, n := range wantUp {
		if g := fw.up.frames[typ].Load(); g != n {
			t.Errorf("type %d: counted %d frames up, sent %d", typ, g, n)
		}
	}
	if g := fw.up.bytes.Load(); g != int64(up.Len()) {
		t.Errorf("counted %d bytes up, sent %d", g, up.Len())
	}
	if g := fw.down.frames[frameStart].Load(); g != 8 {
		t.Errorf("counted %d start frames down, sent 8", g)
	}
}

// TestForwarderMatchesCoordinatorFrames runs a real cluster through the
// forwarder, flat and through a relay, and checks that the frames the
// forwarder delivered after the handshakes are exactly the frames the
// coordinator counted in Stats.Frames.
func TestForwarderMatchesCoordinatorFrames(t *testing.T) {
	for _, relay := range []bool{false, true} {
		w := &clusterWorkload{
			cfg: cluster.Config{
				NetName: "alarm", Strategy: core.NonUniform, Eps: 0.1, Sites: 2,
				Events: 20000, SiteBatchEvents: 128,
			},
			relay: relay,
		}
		if err := w.prepare(3); err != nil {
			t.Fatal(err)
		}
		r := w.rep(nil)
		if len(r.errs) > 0 {
			t.Fatalf("relay=%v: %v", relay, r.errs)
		}
		if r.vals["frames_per_event"] == 0 {
			t.Fatalf("relay=%v: no root frames measured", relay)
		}
	}
}
