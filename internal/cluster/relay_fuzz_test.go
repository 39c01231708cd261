package cluster

import (
	"bytes"
	"path/filepath"
	"testing"
)

// fuzzRelaySites bounds the per-group site ids the grouped-frame decoder is
// fuzzed against, mirroring fuzzMaxCounters for the inner payloads.
const fuzzRelaySites = 16

// FuzzRelayGroups feeds arbitrary bytes through the relay's frame re-encode
// path: decode a grouped frameRelayUpdates payload, fold each group's inner
// updates2 batch into per-site max-merge vectors, re-encode the folded state
// as one grouped frame, and decode it again. The fold runs twice: through a
// map-based reference, and through the production maxVec and flush encoder
// (drainGroups) the relay runs, whose grouped frame must equal the
// reference's byte for byte. Whatever the input — truncated groups,
// adversarial counts, out-of-range sites or ids — the decoders must error
// or produce well-formed groups, never panic, and the fold → re-encode →
// decode round trip must reproduce the folded per-site state exactly (the
// invariant that makes a relay tier invisible to final estimates).
func FuzzRelayGroups(f *testing.F) {
	for _, seed := range fuzzRelayGroupSeeds() {
		f.Add(seed)
	}
	innerCap := updatesPayloadCap(fuzzMaxCounters)
	f.Fuzz(func(t *testing.T, data []byte) {
		groups, err := decodeRelayGroups(nil, data, fuzzRelaySites, innerCap)
		if err != nil {
			return
		}
		// Fold: the relay's per-site max-merge over monotone counts, into
		// the reference maps and the production vectors.
		folded := map[uint32]map[uint32]int64{}
		vecs := make([]maxVec, fuzzRelaySites)
		for _, g := range groups {
			if g.Site >= fuzzRelaySites {
				t.Fatalf("decodeRelayGroups accepted out-of-range site %d", g.Site)
			}
			ups, err := decodeUpdates2(nil, g.Payload, fuzzMaxCounters)
			if err != nil {
				continue // garbage inner payload: the relay drops the conn
			}
			if err := vecs[g.Site].merge(fuzzMaxCounters, ups, nil); err != nil {
				t.Fatalf("maxVec rejected decoded group %d: %v", g.Site, err)
			}
			m := folded[g.Site]
			if m == nil {
				m = map[uint32]int64{}
				folded[g.Site] = m
			}
			for _, u := range ups {
				if u.LocalCount > m[u.Counter] {
					m[u.Counter] = u.LocalCount
				}
			}
		}
		// Re-encode the folded state the way flushUp does: per site, the
		// dirty counters ascending, grouped into one frame.
		var out []relayGroup
		var ups []Update
		for site := uint32(0); site < fuzzRelaySites; site++ {
			m := folded[site]
			if len(m) == 0 {
				continue
			}
			ups = ups[:0]
			for id := uint32(0); id < fuzzMaxCounters; id++ {
				if n, ok := m[id]; ok {
					ups = append(ups, Update{Counter: id, LocalCount: n})
				}
			}
			out = append(out, relayGroup{Site: site, Payload: encodeUpdates2(nil, ups)})
		}
		want := encodeRelayGroups(nil, out)
		if got := encodeRelayGroups(nil, drainGroups(vecs, encodeCountGroup)); !bytes.Equal(got, want) {
			t.Fatalf("production fold encodes %x, reference %x", got, want)
		}
		if len(out) == 0 {
			return
		}
		again, err := decodeRelayGroups(nil, want, fuzzRelaySites, innerCap)
		if err != nil {
			t.Fatalf("re-decode of re-encoded groups failed: %v", err)
		}
		if len(again) != len(out) {
			t.Fatalf("round trip changed group count: %d != %d", len(again), len(out))
		}
		for i, g := range again {
			if g.Site != out[i].Site {
				t.Fatalf("round trip changed group %d site: %d != %d", i, g.Site, out[i].Site)
			}
			ups, err := decodeUpdates2(nil, g.Payload, fuzzMaxCounters)
			if err != nil {
				t.Fatalf("round-tripped group %d payload invalid: %v", i, err)
			}
			m := folded[g.Site]
			if len(ups) != len(m) {
				t.Fatalf("group %d entry count %d, folded %d", i, len(ups), len(m))
			}
			for _, u := range ups {
				if m[u.Counter] != u.LocalCount {
					t.Fatalf("group %d counter %d: round trip %d, folded %d",
						i, u.Counter, u.LocalCount, m[u.Counter])
				}
			}
		}
	})
}

// fuzzRelayGroupSeeds builds valid grouped payloads (including duplicate
// sites, which the fold must merge) plus truncated and bit-flipped mutants
// and adversarial headers.
func fuzzRelayGroupSeeds() [][]byte {
	one := encodeRelayGroups(nil, []relayGroup{
		{Site: 0, Payload: encodeUpdates2(nil, []Update{{Counter: 1, LocalCount: 5}})},
	})
	multi := encodeRelayGroups(nil, []relayGroup{
		{Site: 2, Payload: encodeUpdates2(nil, []Update{{Counter: 0, LocalCount: 1}, {Counter: 900, LocalCount: 1 << 40}})},
		{Site: 7, Payload: encodeUpdates2(nil, []Update{{Counter: 3, LocalCount: 7}})},
	})
	dup := encodeRelayGroups(nil, []relayGroup{
		{Site: 4, Payload: encodeUpdates2(nil, []Update{{Counter: 10, LocalCount: 3}})},
		{Site: 4, Payload: encodeUpdates2(nil, []Update{{Counter: 10, LocalCount: 9}, {Counter: 11, LocalCount: 1}})},
	})
	empty := encodeRelayGroups(nil, nil)

	var seeds [][]byte
	add := func(payload []byte) {
		seeds = append(seeds, payload)
		if len(payload) > 2 {
			seeds = append(seeds, payload[:len(payload)/2])
			flipped := append([]byte(nil), payload...)
			flipped[len(payload)/3] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	add(one)
	add(multi)
	add(dup)
	add(empty)
	// Adversarial headers: huge declared group count, max-varint count,
	// group length larger than the remaining payload.
	seeds = append(seeds, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	seeds = append(seeds, append(maxUvarint(), 1, 1))
	seeds = append(seeds, []byte{1, 0, 0x7f, 1, 2, 3})
	return seeds
}

// TestWriteFuzzRelayGroupsCorpus regenerates the committed seed corpus for
// FuzzRelayGroups when DISTBAYES_WRITE_FUZZ_CORPUS is set; normally it only
// verifies the corpus directory exists.
func TestWriteFuzzRelayGroupsCorpus(t *testing.T) {
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzRelayGroups"), fuzzRelayGroupSeeds())
}
