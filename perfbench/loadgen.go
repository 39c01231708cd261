package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// openLoop is one open-loop request stream: request i is due at
// start + offset + i·interval whether or not earlier ones have completed.
// Latency is timed from the due time, so a stall also charges the requests
// it delays; lateness is how far behind its schedule the generator sent.
type openLoop struct {
	start    time.Time
	offset   time.Duration
	interval time.Duration
}

func (o openLoop) due(i int) time.Time {
	return o.start.Add(o.offset + time.Duration(i)*o.interval)
}

// loadSamples is what one generator stream measured.
type loadSamples struct {
	latMs, lateMs []float64
	attempted     int64
	failed        int64
	firstErr      error
}

func (s *loadSamples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *loadSamples) merge(o loadSamples) {
	s.latMs = append(s.latMs, o.latMs...)
	s.lateMs = append(s.lateMs, o.lateMs...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// run issues requests on the schedule until stop closes, calling do for
// request i and recording latency and lateness. do returns an error for a
// failed or wrong answer.
//
// The generator waits in nanosleep on its own OS thread rather than on a Go
// timer: an idle Go runtime parks in epoll with millisecond resolution, which
// would add up to a millisecond of generator slip to every latency.
func (o openLoop) run(stop <-chan struct{}, do func(i int) error) loadSamples {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var s loadSamples
	for i := 0; ; i++ {
		due := o.due(i)
		for {
			select {
			case <-stop:
				return s
			default:
			}
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			// Wake at least every 10ms to notice stop.
			ts := syscall.NsecToTimespec(int64(min(wait, 10*time.Millisecond)))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
		}
		sent := time.Now()
		s.lateMs = append(s.lateMs, ms(sent.Sub(due)))
		s.attempted++
		if err := do(i); err != nil {
			s.fail(err)
			continue
		}
		s.latMs = append(s.latMs, ms(time.Since(due)))
	}
}

// freshness measures how long an update frame takes to show in a served
// answer: when a frame passes the forwarder it remembers the highest snapshot
// version answered so far; the first later answer with a higher version
// resolves it.
type freshness struct {
	mu      sync.Mutex
	maxSeen uint64
	pending []pendingFrame
	ms      []float64
}

type pendingFrame struct {
	at      time.Time
	version uint64
}

func (f *freshness) framePassed(at time.Time) {
	f.mu.Lock()
	f.pending = append(f.pending, pendingFrame{at: at, version: f.maxSeen})
	f.mu.Unlock()
}

func (f *freshness) answered(version uint64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if version > f.maxSeen {
		f.maxSeen = version
	}
	// Pending versions never decrease along the queue, so the frames this
	// answer resolves form a prefix.
	n := 0
	for n < len(f.pending) && version > f.pending[n].version {
		if d := at.Sub(f.pending[n].at); d >= 0 {
			f.ms = append(f.ms, ms(d))
		}
		n++
	}
	f.pending = f.pending[n:]
}

// samples returns the resolved freshness samples and the number of frames
// no answer resolved.
func (f *freshness) samples() ([]float64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ms, len(f.pending)
}

// httpConn is one keep-alive raw HTTP/1.1 connection to the query server.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
	// version is the highest snapshot version answered on this connection.
	version uint64
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

// answer is the part of a served envelope the benchmark checks.
type answer struct {
	Result struct {
		P *float64 `json:"p"`
	} `json:"result"`
	Snapshot struct {
		Version uint64 `json:"version"`
	} `json:"snapshot"`
}

// query sends one pre-encoded request, reads the response and checks it: a
// 200 carrying a finite probability in [0, 1] and a snapshot version no lower
// than any earlier answer on this connection.
func (h *httpConn) query(req []byte) (answer, error) {
	var a answer
	if _, err := h.c.Write(req); err != nil {
		return a, err
	}
	code, body, err := readHTTPResponse(h.br)
	if err != nil {
		return a, err
	}
	if code == 200 {
		if err := json.Unmarshal(body, &a); err != nil {
			return a, fmt.Errorf("decoding answer: %w", err)
		}
	}
	var p float64
	if a.Result.P != nil {
		p = *a.Result.P
	}
	if err := checkAnswer(code, a.Result.P != nil, p, h.version, a.Snapshot.Version); err != nil {
		return a, err
	}
	h.version = a.Snapshot.Version
	return a, nil
}

// readHTTPResponse reads one HTTP/1.1 response with a Content-Length body.
func readHTTPResponse(br *bufio.Reader) (int, []byte, error) {
	status, err := br.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	parts := strings.SplitN(status, " ", 3)
	if len(parts) < 2 {
		return 0, nil, fmt.Errorf("malformed status line %q", strings.TrimSpace(status))
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", strings.TrimSpace(status))
	}
	length := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(k, "Content-Length") {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, nil, err
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return code, bytes.TrimSpace(body), nil
}

// encodePost renders one keep-alive HTTP/1.1 POST as raw bytes.
func encodePost(host, path, body string) []byte {
	return []byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, host, len(body), body))
}
