package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/mrc"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// openAllocPerByte and openAllocFixed bound the heap bytes one
// decodeOpenRequest call may allocate: per payload byte, the decoder's
// copy of the payload, grown by doubling, and the strings it unquotes,
// plus the decoder itself and an error message. A string of invalid
// UTF-8 costs the most, each byte decoding to the 3-byte U+FFFD: as the
// resume token about 13.5 heap bytes per payload byte, as an unknown
// key, which is case-folded and quoted in the error, about 30-40; valid
// text costs 4-15. wire.MaxOpenPayload caps the payload, and with it
// the total.
const (
	openAllocPerByte = 48
	openAllocFixed   = 8 << 10
)

// FuzzDecodeOpenRequest throws arbitrary bytes at the decoder of the
// first frame a client sends. Whatever the input, it must return an
// error or a request, never panic, and allocate at most
// openAllocPerByte heap bytes per payload byte plus openAllocFixed. A
// request it accepts must round-trip: its JSON form decodes to the same
// request.
func FuzzDecodeOpenRequest(f *testing.F) {
	for _, req := range []wire.OpenRequest{
		{Config: core.DefaultConfig(), Wire: wire.WireV4},
		{Config: core.DefaultConfig(), ResumeToken: strings.Repeat("t", 64), LastAcked: 99, Wire: wire.WireV4},
		{},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"config":{},"unknown":1}`))
	f.Add([]byte(`{"wire":4} {"garbage":`))
	f.Add([]byte(`{"config":{"SamplePeriod":-1}}`))
	f.Add([]byte(`{"resume_token":"` + strings.Repeat(`é`, 500) + `"}`))
	f.Add([]byte(`{"config":{"` + strings.Repeat("\xa9", 500) + `":1}}`))
	f.Add(bytes.Repeat([]byte{' '}, wire.MaxOpenPayload+1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			bound := uint64(openAllocPerByte*len(data) + openAllocFixed)
			if alloc := testutil.AllocBytes(func() { decodeOpenRequest(data) }); alloc > bound {
				t.Fatalf("decoding a %d-byte open request allocates %d bytes, bound %d", len(data), alloc, bound)
			}
		}
		req, err := decodeOpenRequest(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted open request fails to encode: %v", err)
		}
		back, err := decodeOpenRequest(enc)
		if err != nil || back != req {
			t.Fatalf("open request %+v does not round-trip: %+v, %v", req, back, err)
		}
	})
}

// adminAllocPerByte and adminAllocFixed bound the heap bytes one
// decodeWhatIfRequest or decodeDrainRequest call may allocate. Past the
// open request's costs (see openAllocPerByte), an admin body can list
// structs, and lists cost the most: each 3-byte "{}," of a hierarchy
// grows a slice of 48-byte levels by doubling, about 70 heap bytes per
// payload byte, and each 4-byte "\"a\"," of a drain list grows a slice of
// strings and then one of 32-byte targets, about 64. maxControlBody caps
// the payload, and with it the total.
const (
	adminAllocPerByte = 96
	adminAllocFixed   = 8 << 10
)

// hostileSweeps are sweeps that once made a curve build run for
// seconds or forever.
var hostileSweeps = []string{
	`{"max_lines":18446744073709551615}`,
	`{"max_lines":1048576,"points_per_doubling":67108864}`,
	`{"min_lines":18446744073709551615,"max_lines":18446744073709551615,"points_per_doubling":9223372036854775807}`,
	`{"min_lines":1,"max_lines":9223372036854775808,"points_per_doubling":64}`,
}

// sweepHistogram is a small reuse-distance histogram with distances up
// to 2^20 and a cold share, for building the curves fuzzed sweeps ask
// for.
func sweepHistogram() *histogram.Histogram {
	rd := histogram.New()
	for v := uint64(1); v < 1<<20; v *= 3 {
		rd.Add(v, 1)
	}
	rd.Add(histogram.Infinite, 1)
	return rd
}

// levelsAtCap is a what-if body of exactly maxControlBody bytes listing
// empty hierarchy levels, the costliest body per byte the cap admits.
func levelsAtCap() []byte {
	const head, tail = `{"token":"t","spec":"x","hierarchy":[`, `{}]}`
	n := (maxControlBody - len(head) - len(tail)) / 3
	body := head + strings.Repeat(`{},`, n) + tail
	return append([]byte(body), bytes.Repeat([]byte{' '}, maxControlBody-len(body))...)
}

// FuzzDecodeWhatIfRequest throws arbitrary bytes at the POST /whatif
// body decoder. Whatever the input, it must return an error or a
// request, never panic, and allocate at most adminAllocPerByte heap
// bytes per payload byte plus adminAllocFixed. A request it accepts must
// round-trip (its JSON form decodes to a request with the same JSON
// form), and its sweep must build a curve of at most 49 octaves of
// mrc.MaxPointsPerDoubling sizes.
func FuzzDecodeWhatIfRequest(f *testing.F) {
	f.Add([]byte(`{"token":"0123456789abcdef0123456789abcdef","spec":"l2.size=2x"}`))
	f.Add([]byte(`{"token":"t","spec":"l2.ways=full","hierarchy":[{"name":"l1","size_bytes":8192,"line_bytes":64,"ways":2}]}`))
	for _, sw := range hostileSweeps {
		f.Add([]byte(`{"token":"t","spec":"l2.size=2x","sweep":` + sw + `}`))
	}
	f.Add([]byte(`{"token":"t","spec":"x","hierarchy":[` + strings.Repeat(`{},`, 20000) + `{}]}`))
	f.Add(levelsAtCap())
	f.Add([]byte(`{"token":"` + strings.Repeat("\xa9", 500) + `","spec":"x"}`))
	f.Add([]byte(`{"spec":"x","` + strings.Repeat("\xa9", 500) + `":1}`))
	f.Add([]byte(`{"token":"t"}`))
	f.Add([]byte(`{"spec":"x"} {"garbage":`))
	f.Add([]byte{})

	rd := sweepHistogram()
	const maxPoints = 49*mrc.MaxPointsPerDoubling + 1
	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			bound := uint64(adminAllocPerByte*len(data) + adminAllocFixed)
			if alloc := testutil.AllocBytes(func() { decodeWhatIfRequest(data) }); alloc > bound {
				t.Fatalf("decoding a %d-byte what-if request allocates %d bytes, bound %d", len(data), alloc, bound)
			}
		}
		req, err := decodeWhatIfRequest(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted what-if request fails to encode: %v", err)
		}
		// The re-encoding may outgrow the body cap (each "{}" level
		// re-encodes at 50 bytes, each invalid UTF-8 byte as "\ufffd"),
		// so it is decoded again past the size check.
		var back whatIfRequest
		if err := unmarshalStrict(enc, &back); err != nil {
			t.Fatalf("what-if request %s does not decode again: %v", enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("what-if request does not round-trip:\n%s\n%s", enc, again)
		}
		if n := len(mrc.FromHistogram(rd, 64, req.Sweep).Points); n > maxPoints {
			t.Fatalf("sweep %+v builds a %d-point curve, bound %d", req.Sweep, n, maxPoints)
		}
	})
}

// FuzzDecodeDrainRequest throws arbitrary bytes at the POST /drain body
// decoder, under the same rules and allocation bound as
// FuzzDecodeWhatIfRequest. An accepted target list must round-trip:
// written back as "addr=admin" specs, it parses to the same list.
func FuzzDecodeDrainRequest(f *testing.F) {
	f.Add([]byte(`{"to":["127.0.0.1:9127","127.0.0.1:9227=127.0.0.1:9228"]}`))
	f.Add([]byte(`{"to":[]}`))
	f.Add([]byte(`{"to":[" a =b ","=x"]}`))
	f.Add([]byte(`{"to":[` + strings.Repeat(`"a",`, 15000) + `"a"]}`))
	f.Add([]byte(`{"to":["` + strings.Repeat("\xa9", 500) + `"]}`))
	f.Add([]byte(`{"to":"a"}`))
	f.Add([]byte(`{"to":[]} {"garbage":`))
	f.Add(bytes.Repeat([]byte{' '}, maxControlBody+1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			bound := uint64(adminAllocPerByte*len(data) + adminAllocFixed)
			if alloc := testutil.AllocBytes(func() { decodeDrainRequest(data) }); alloc > bound {
				t.Fatalf("decoding a %d-byte drain request allocates %d bytes, bound %d", len(data), alloc, bound)
			}
		}
		targets, err := decodeDrainRequest(data)
		if err != nil {
			return
		}
		specs := make([]string, len(targets))
		for i, tgt := range targets {
			specs[i] = tgt.Addr + "=" + tgt.Admin
		}
		back, err := ParseMigrateTargets(specs)
		if err != nil || !reflect.DeepEqual(back, targets) {
			t.Fatalf("%d drain targets do not round-trip through their specs: %v", len(targets), err)
		}
	})
}
