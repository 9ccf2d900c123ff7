package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
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
