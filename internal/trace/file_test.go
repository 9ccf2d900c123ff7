package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/mem"
	"repro/internal/testutil"
)

// recordedBytes returns a small recorded trace exercising multi-byte
// varint deltas (large address jumps) and both access kinds.
func recordedBytes(t *testing.T) []byte {
	t.Helper()
	accs := []mem.Access{
		{Addr: 0, PC: 0x400000, Size: 8, Kind: mem.Load},
		{Addr: 1 << 40, PC: 0x400004, Size: 4, Kind: mem.Store},
		{Addr: 8, PC: 0x400008, Size: 1, Kind: mem.Load},
		{Addr: 1 << 56, PC: 0x40000c, Size: 2, Kind: mem.Store},
		{Addr: 16, PC: 0x400010, Size: 8, Kind: mem.Load},
	}
	var buf bytes.Buffer
	n, err := Record(&buf, FromSlice(accs))
	if err != nil || n != uint64(len(accs)) {
		t.Fatalf("Record: n=%d err=%v", n, err)
	}
	return buf.Bytes()
}

// TestFileTruncationEveryBoundary is the regression test for silent
// short reads: replaying the trace truncated at EVERY byte offset must
// fail with a descriptive error — never succeed with fewer accesses, and
// never return a bare io.EOF.
func TestFileTruncationEveryBoundary(t *testing.T) {
	full := recordedBytes(t)

	// The complete stream replays cleanly.
	r, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if accs, err := Collect(r); err != nil || len(accs) != 5 {
		t.Fatalf("full replay: %d accesses, err=%v", len(accs), err)
	}

	for cut := 0; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			// Truncated inside the magic header: must say so.
			if cut >= 4 {
				t.Errorf("cut=%d: NewReader failed on intact header: %v", cut, err)
			} else if !errors.Is(err, ErrTruncated) {
				t.Errorf("cut=%d: header error not ErrTruncated: %v", cut, err)
			}
			continue
		}
		if cut < 4 {
			t.Errorf("cut=%d: NewReader accepted a partial header", cut)
			continue
		}
		_, err = Collect(r)
		if err == nil {
			t.Errorf("cut=%d: truncated trace replayed without error", cut)
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: error does not wrap ErrTruncated: %v", cut, err)
		}
	}
}

func TestFileTrailerCountMismatch(t *testing.T) {
	full := recordedBytes(t)
	// The trailer is sentinel + uvarint(5); rewrite the count.
	if full[len(full)-2] != 0xFF || full[len(full)-1] != 5 {
		t.Fatalf("unexpected trailer bytes % x", full[len(full)-2:])
	}
	bad := append(append([]byte(nil), full[:len(full)-1]...), 7)
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(r)
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("count mismatch: want corruption error, got %v", err)
	}
}

func TestFileTrailingGarbage(t *testing.T) {
	full := recordedBytes(t)
	r, err := NewReader(bytes.NewReader(append(append([]byte(nil), full...), 0x00, 0x01)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); err == nil {
		t.Error("trailing bytes after the trailer replayed without error")
	}
}

func TestFileFlushWithoutCloseIsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(mem.Access{Addr: 64, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unclosed stream: want ErrTruncated, got %v", err)
	}
}

func TestFileCloseIdempotentAndSealing(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(mem.Access{Addr: 8, Size: 8}); err == nil {
		t.Error("Write after Close succeeded")
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := Collect(r)
	if err != nil || len(accs) != 0 {
		t.Fatalf("empty closed stream: %d accesses, err=%v", len(accs), err)
	}
}

// TestFileEOFAfterTrailer verifies the reader keeps returning io.EOF
// once the trailer has been consumed.
func TestFileEOFAfterTrailer(t *testing.T) {
	r, err := NewReader(bytes.NewReader(recordedBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]mem.Access, 64)
	total := 0
	for {
		n, err := r.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 5 {
		t.Fatalf("decoded %d accesses, want 5", total)
	}
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF Read = %d, %v; want 0, io.EOF", n, err)
	}
}

// TestFileLargeCountTrailer exercises a multi-byte count varint in the
// trailer.
func TestFileLargeCountTrailer(t *testing.T) {
	const n = 300 // count varint needs 2 bytes
	var buf bytes.Buffer
	if _, err := Record(&buf, Sequential(0, n, 8)); err != nil {
		t.Fatal(err)
	}
	// Sanity: trailer count parses back to n.
	b := buf.Bytes()
	idx := bytes.LastIndexByte(b, 0xFF)
	if got, _ := binary.Uvarint(b[idx+1:]); got != n {
		t.Fatalf("trailer count = %d, want %d", got, n)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cnt, err := Count(r); err != nil || cnt != n {
		t.Fatalf("replay: %d accesses, err=%v", cnt, err)
	}
}

// TestWriterEncodeAllocFree: writing accesses to a Writer performs zero
// heap allocations per access (the varint scratch must not escape).
func TestWriterEncodeAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	accs := []mem.Access{
		{Addr: 0x1000, PC: 0x400000, Size: 8, Kind: mem.Load},
		{Addr: 1 << 44, PC: 0x400010, Size: 4, Kind: mem.Store},
	}
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() {
		for i := 0; i < 256; i++ {
			for _, a := range accs {
				if err := w.Write(a); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	encode() // warm up
	if allocs := testing.AllocsPerRun(100, encode); allocs > 0 {
		t.Errorf("Writer encode allocates %.2f times per 512 accesses, want 0", allocs)
	}
}
