package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// FuzzReadFrame throws arbitrary bytes at the frame decoder: whatever
// the input — truncated headers, lying length prefixes, checksum
// garbage — it must either decode a frame or return an error, never
// panic, and never allocate more memory than the input can justify.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, FrameOpen, []byte(`{"config":{}}`))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, FrameSnapshot, nil)
	f.Add(seed.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x02})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Helper()
		ft, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode to a stream the
		// decoder accepts again (the payload survived the checksum).
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, ft, payload); werr != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", werr)
		}
		ft2, payload2, rerr := ReadFrame(&buf)
		if rerr != nil || ft2 != ft || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame does not round-trip: %v", rerr)
		}
	})
}

// FuzzReadFrame's EOF contract: an empty stream is io.EOF, anything
// else mid-frame is a descriptive error. Kept as a plain test next to
// the fuzz targets so the contract is pinned even in -short runs.
func TestReadFrameEOFContract(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// resultAllocPerByte and resultAllocFixed bound the heap bytes one
// decodeResult call may allocate: resultAllocPerByte per payload byte
// plus resultAllocFixed for the Result, its two histograms, the decoder
// state and an error message. The per-byte term is set by the
// attribution array: an element as short as "{}," still holds a 56-byte
// PairStat, 18.7 heap bytes per payload byte, and the decoder's scanner
// stack under nesting 9990 arrays deep costs 17.9. A bare-number ("0,")
// or string ("\"\",") element is refused before any PairStat is
// allocated; the default decoder would spend about 210 bytes per payload
// byte on it. A histogram that sized its buckets from an index it had
// not checked fails the bound on a payload of a few dozen bytes.
const (
	resultAllocPerByte = 24
	resultAllocFixed   = 16 << 10
)

// FuzzDecodeResult throws arbitrary bytes at the result decoder, which
// reads every snapshot and final result off a session's connection.
// Whatever the input, it must return an error or a result, never
// panic, and allocate at most resultAllocPerByte heap bytes per payload
// byte plus resultAllocFixed. A result it accepts must round-trip: its
// JSON encoding decodes to a result with the same encoding.
func FuzzDecodeResult(f *testing.F) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 300
	p, err := core.NewProfiler(cfg)
	if err != nil {
		f.Fatal(err)
	}
	res, err := p.Run(trace.ZipfAccess(5, 0, 2048, 1.0, 30000), cpumodel.Default())
	if err != nil {
		f.Fatal(err)
	}
	full, err := json.Marshal(FromCore(res, false))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"reuse_time":{"buckets":{"64":1},"count":1}}`))
	// A bucket index no uint64 distance reaches, which must not size
	// the histogram.
	f.Add([]byte(`{"reuse_time":{"buckets":{"1000000":1}}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	// Attribution arrays of bare numbers, of empty strings and of empty
	// objects, the densest an attribution can be per payload byte.
	f.Add([]byte(`{"attribution":[` + strings.Repeat("0,", 5000) + `0]}`))
	f.Add([]byte(`{"attribution":[{},` + strings.Repeat(`"",`, 5000) + `""]}`))
	f.Add([]byte(`{"attribution":[` + strings.Repeat("{},", 5000) + `{}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			bound := uint64(resultAllocPerByte*len(data) + resultAllocFixed)
			if alloc := testutil.AllocBytes(func() { decodeResult(data) }); alloc > bound {
				t.Fatalf("decoding a %d-byte result allocates %d bytes, bound %d", len(data), alloc, bound)
			}
		}
		r, err := decodeResult(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted result fails to encode: %v", err)
		}
		r2, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		enc2, err := json.Marshal(r2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("result does not round-trip: %v", err)
		}
	})
}

// handoffAllocMax bounds the heap bytes one DecodeHandoff call may
// allocate whatever the payload's length: the token string (at most
// 255 bytes) or an error message. The body aliases the payload, so a
// multi-megabyte checkpoint is never copied by the decoder.
const handoffAllocMax = 1 << 10

// FuzzDecodeHandoff throws arbitrary bytes at the handoff decoder,
// which reads a session's state from a peer daemon. Whatever the input,
// it must return an error or the parts, never panic, and allocate at
// most handoffAllocMax bytes. A payload it accepts must re-encode to
// itself byte for byte.
func FuzzDecodeHandoff(f *testing.F) {
	for _, tc := range []struct {
		kind  byte
		token string
		body  []byte
	}{
		{HandoffLive, "tok-1", []byte("RDXC\x01checkpoint")},
		{HandoffFinal, strings.Repeat("t", 255), []byte(`{"final":true}`)},
		{HandoffLive, "t", nil},
	} {
		p, err := EncodeHandoff(nil, tc.kind, 42, tc.token, tc.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:handoffFixed])
	}
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 'a', 'b', 'c'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			if alloc := testutil.AllocBytes(func() { DecodeHandoff(data) }); alloc > handoffAllocMax {
				t.Fatalf("decoding a %d-byte handoff allocates %d bytes, bound %d", len(data), alloc, handoffAllocMax)
			}
		}
		kind, seq, token, body, err := DecodeHandoff(data)
		if err != nil {
			return
		}
		re, err := EncodeHandoff(nil, kind, seq, token, body)
		if err != nil {
			t.Fatalf("accepted handoff fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d-byte handoff re-encodes to %d different bytes", len(data), len(re))
		}
	})
}

// replyAllocPerByte and replyAllocFixed bound the heap bytes one open
// reply, retry-after or moved decode may allocate: per payload byte, the
// strings it unquotes, plus the reply itself and an error message. A
// string of invalid UTF-8 costs the most, each byte decoding to the
// 3-byte U+FFFD in a buffer grown by doubling: as a value about 10.5
// heap bytes per payload byte, as an unknown key, which is case-folded
// too, about 18-25; valid text costs 1-5. MaxOpenPayload caps the
// payload, and with it the total.
const (
	replyAllocPerByte = 32
	replyAllocFixed   = 2 << 10
)

// FuzzDecodeOpenReplies throws arbitrary bytes at the three decoders of
// a server's answer to an open: the open reply (decodeOpenReply), the
// retry-after hint of a shed open (decodeRetryAfter) and the redirect
// of a migrated session (decodeMoved). Whatever the input, each must
// return an error or its value, never panic, and allocate at most
// replyAllocPerByte heap bytes per payload byte plus replyAllocFixed.
// What each accepts must round-trip: its JSON form decodes to the same
// value.
func FuzzDecodeOpenReplies(f *testing.F) {
	for _, v := range []any{
		OpenReply{SessionID: 7, QueueDepth: 64, MaxBatch: 1 << 16, Token: "tok", ResumeSeq: 12, Done: true, CheckpointEvery: 32, Wire: WireV4},
		OpenReply{Wire: WireV4},
		OpenReply{Wire: 3},
		RetryAfter{AfterMillis: 250, Reason: "draining"},
		RetryAfter{AfterMillis: maxRetryAfterMillis + 1},
		RetryAfter{AfterMillis: -1},
		Moved{Addr: "127.0.0.1:9000", Admin: "127.0.0.1:9001", Seq: 40},
		Moved{Seq: 1},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"token":"` + strings.Repeat(`é`, 500) + `","wire":4}`))
	f.Add([]byte(`{"` + strings.Repeat("\xa9", 500) + `":"","addr":"a"}`))
	f.Add(bytes.Repeat([]byte{' '}, MaxOpenPayload+1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			bound := uint64(replyAllocPerByte*len(data) + replyAllocFixed)
			for name, decode := range map[string]func(){
				"open reply":  func() { decodeOpenReply(data) },
				"retry-after": func() { decodeRetryAfter(data) },
				"moved":       func() { decodeMoved(data) },
			} {
				if alloc := testutil.AllocBytes(decode); alloc > bound {
					t.Fatalf("decoding a %d-byte %s allocates %d bytes, bound %d", len(data), name, alloc, bound)
				}
			}
		}
		if r, err := decodeOpenReply(data); err == nil {
			if back, err := decodeOpenReply(mustMarshal(t, r)); err != nil || back != r {
				t.Fatalf("open reply %+v does not round-trip: %+v, %v", r, back, err)
			}
		}
		if ra, err := decodeRetryAfter(data); err == nil {
			enc := mustMarshal(t, RetryAfter{AfterMillis: ra.After.Milliseconds(), Reason: ra.Reason})
			if back, err := decodeRetryAfter(enc); err != nil || *back != *ra {
				t.Fatalf("retry-after %+v does not round-trip: %v", *ra, err)
			}
		}
		if mv, err := decodeMoved(data); err == nil {
			enc := mustMarshal(t, Moved{Addr: mv.Addr, Admin: mv.Admin, Seq: mv.Seq})
			if back, err := decodeMoved(enc); err != nil || *back != *mv {
				t.Fatalf("moved %+v does not round-trip: %v", *mv, err)
			}
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
