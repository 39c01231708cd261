package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start, end,
// the span that caused it and the request it belongs to (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted but
// not kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the benchmark writes them out at the
// end. A nil *tracer is the untraced mode: every method is a no-op and label
// wrappers call straight through.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanScope is an open span; end records it.
type spanScope struct {
	t               *tracer
	id, parent, req uint64
	name            string
	start           time.Time
}

// begin opens a span named name under parent (0 = root) for request req.
func (t *tracer) begin(name string, parent, req uint64) spanScope {
	if t == nil {
		return spanScope{}
	}
	return spanScope{t: t, id: t.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span and returns its duration (0 when untraced).
func (s spanScope) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	if len(s.t.spans) < maxSpans {
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
		})
	} else {
		s.t.dropped.Add(1)
	}
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerKey is the pprof label key naming the layer a goroutine works for.
const layerKey = "layer"

// inLayer runs fn with the pprof label layer=name when traced. Goroutines fn
// starts inherit the label, so a role's whole goroutine tree is attributed to
// its layer in the CPU profile. The calling goroutine is left unlabelled.
func (t *tracer) inLayer(name string, fn func()) { t.inNestedLayer("", name, fn) }

// inNestedLayer is inLayer for a call made from a goroutine labelled outer:
// the label reverts to outer when fn returns.
func (t *tracer) inNestedLayer(outer, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	ctx := context.Background()
	if outer != "" {
		ctx = pprof.WithLabels(ctx, pprof.Labels(layerKey, outer))
	}
	pprof.Do(ctx, pprof.Labels(layerKey, name), func(context.Context) { fn() })
}

// cpuProfile collects a CPU profile in memory for one traced repetition.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the CPU nanoseconds per layer label
// ("" = unlabelled goroutines: the runtime and the benchmark's main loop).
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return cpuByLabel(p.buf.Bytes(), layerKey)
}

// cpuByLabel sums the cpu/nanoseconds sample values of a gzipped pprof
// profile by the value of label key. It decodes only the fields it needs
// (profile.proto: Profile.sample = 2, Profile.sample_type = 1,
// Profile.string_table = 6; Sample.value = 2, Sample.label = 3; Label.key = 1,
// Label.str = 2; ValueType.type = 1).
func cpuByLabel(gz []byte, key string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var samples, sampleTypes [][]byte
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Pick the sample value index whose type is "cpu" (the other is the
	// sample count).
	valIdx := -1
	for i, st := range sampleTypes {
		_ = pbFields(st, func(field int, v uint64, _ []byte) error {
			if field == 1 && str(v) == "cpu" {
				valIdx = i
			}
			return nil
		})
	}
	if valIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range samples {
		var vals []int64
		layer := ""
		err := pbFields(s, func(field int, v uint64, b []byte) error {
			switch field {
			case 2:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				for len(b) > 0 {
					x, n := binary.Uvarint(b)
					if n <= 0 {
						return errors.New("cpu profile: bad packed value")
					}
					vals = append(vals, int64(x))
					b = b[n:]
				}
			case 3:
				var k, sv uint64
				if err := pbFields(b, func(f int, v uint64, _ []byte) error {
					switch f {
					case 1:
						k = v
					case 2:
						sv = v
					}
					return nil
				}); err != nil {
					return err
				}
				if str(k) == key {
					layer = str(sv)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valIdx < len(vals) {
			out[layer] += vals[valIdx]
		}
	}
	return out, nil
}

// pbFields walks the top-level fields of a protobuf message, calling fn with
// the field number and either the varint value (b == nil) or the
// length-delimited bytes. Fixed-width fields are skipped.
func pbFields(m []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(m) > 0 {
		tag, n := binary.Uvarint(m)
		if n <= 0 {
			return errors.New("protobuf: bad tag")
		}
		m = m[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(m)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			m = m[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(m) < 8 {
				return errors.New("protobuf: short fixed64")
			}
			m = m[8:]
		case 2:
			l, n := binary.Uvarint(m)
			if n <= 0 || uint64(len(m)-n) < l {
				return errors.New("protobuf: bad length")
			}
			b := m[n : n+int(l)]
			m = m[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(m) < 4 {
				return errors.New("protobuf: short fixed32")
			}
			m = m[4:]
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
	}
	return nil
}
