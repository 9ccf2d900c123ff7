package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/mem"
	"repro/internal/testutil"
)

// maxReaderAllocs bounds the heap allocations one replay of an RDT3
// stream may make when it decodes into a fixed caller buffer: the
// reader, its 4 KiB bufio buffer and one formatted error (measured: 5
// on success, at most 10 on the bad-magic error). The bound does not
// depend on the input, so a decoder that allocates per record (or
// sizes anything from a length it read) fails on long inputs.
const maxReaderAllocs = 16

// FuzzTraceReader throws arbitrary bytes at the RDT3 file reader, which
// replays user-supplied trace files (rdx -trace, tracegen). Whatever the
// input — bad magic, truncation at any byte, corrupt varints, lying
// trailers, trailing garbage — replay must return an error or a stream,
// never panic, and allocate at most maxReaderAllocs times. A stream it
// accepts must round-trip through Record to the same accesses, in no
// more bytes than the input (Record writes minimal varints).
func FuzzTraceReader(f *testing.F) {
	small := []mem.Access{
		{Addr: 0, PC: 0x400000, Size: 8, Kind: mem.Load},
		{Addr: 1 << 40, PC: 0x400004, Size: 4, Kind: mem.Store},
		{Addr: 8, PC: 0x400008, Size: 1, Kind: mem.Load},
		{Addr: 1 << 63, PC: 0x40000c, Size: 2, Kind: mem.Store},
	}
	var rec bytes.Buffer
	if _, err := Record(&rec, FromSlice(small)); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add(rec.Bytes()[:len(rec.Bytes())-1]) // cut inside the trailer
	f.Add(rec.Bytes()[:7])                  // cut inside a record
	f.Add([]byte("RDT2\xff\x00"))           // bad magic
	f.Add([]byte{})
	var long bytes.Buffer
	if _, err := Record(&long, ZipfAccess(3, 0, 4096, 1.0, 3000)); err != nil {
		f.Fatal(err)
	}
	f.Add(long.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []mem.Access
		var buf [64]mem.Access
		replay := func() error {
			got = got[:0]
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return err
			}
			for {
				n, err := r.Read(buf[:])
				got = append(got, buf[:n]...)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
			}
		}
		err := replay()
		if !testutil.RaceEnabled {
			// got already holds every access, so the slice never grows
			// inside the measured runs: what is counted is the reader's.
			if allocs := testing.AllocsPerRun(1, func() { replay() }); allocs > maxReaderAllocs {
				t.Fatalf("replaying %d bytes allocates %.0f times, bound %d", len(data), allocs, maxReaderAllocs)
			}
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		n, err := Record(&re, FromSlice(got))
		if err != nil || n != uint64(len(got)) {
			t.Fatalf("accepted stream of %d accesses fails to re-record: n=%d err=%v", len(got), n, err)
		}
		if re.Len() > len(data) {
			t.Fatalf("re-recorded stream is %d bytes, accepted input %d", re.Len(), len(data))
		}
		back, err := Collect(mustReader(t, re.Bytes()))
		if err != nil || len(back) != len(got) {
			t.Fatalf("re-recorded stream does not replay: %d of %d accesses, err=%v", len(back), len(got), err)
		}
		for i := range back {
			if back[i] != got[i] {
				t.Fatalf("access %d changed across round trip: %v -> %v", i, got[i], back[i])
			}
		}
	})
}

func mustReader(t *testing.T, data []byte) Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}
