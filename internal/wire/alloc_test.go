package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/mem"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// benchAccesses is a representative batch for the allocation tests:
// mixed strides and kinds, large enough that a per-access leak shows up
// as hundreds of allocations, not a rounding error.
func benchAccesses(n int) []mem.Access {
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{
			Addr: mem.Addr(i) * 64 << (i % 3),
			PC:   0x400000 + mem.Addr(i%13)*4,
			Size: 8,
			Kind: mem.Kind(i % 2),
		}
	}
	return accs
}

func encodedBatchFrame(t testing.TB, seq uint64, accs []mem.Access) []byte {
	t.Helper()
	var frame bytes.Buffer
	if err := WriteFrame(&frame, FrameBatchV3, encodedColumns(t, seq, accs)); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// encodedColumns returns the columnar batch payload of accs.
func encodedColumns(t testing.TB, seq uint64, accs []mem.Access) []byte {
	t.Helper()
	var cols trace.Columns
	cols.AppendBatch(accs)
	payload, err := EncodeColumns(nil, seq, &cols)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestPooledFrameMatchesPlain: both frame-read paths must hand back the
// same type and payload bytes.
func TestPooledFrameMatchesPlain(t *testing.T) {
	frame := encodedBatchFrame(t, 7, benchAccesses(100))

	tPlain, plain, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	tPooled, pooled, err := ReadFramePooled(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer PutPayload(pooled)
	if tPlain != tPooled || !bytes.Equal(plain, pooled) {
		t.Fatalf("pooled read (%s, %d bytes) differs from plain read (%s, %d bytes)",
			tPooled, len(pooled), tPlain, len(plain))
	}
}

// TestPayloadPoolClasses: buffers come back with exactly the requested
// length, releases of foreign or oversized buffers are safe no-ops, and
// the gets counter advances.
func TestPayloadPoolClasses(t *testing.T) {
	gets0, _ := PoolStats()
	for _, n := range []int{0, 1, 4 << 10, 4<<10 + 1, 64 << 10, 1 << 20, 4 << 20, 4<<20 + 1} {
		buf := GetPayload(n)
		if len(buf) != n {
			t.Fatalf("GetPayload(%d) returned %d bytes", n, len(buf))
		}
		PutPayload(buf)
	}
	PutPayload(nil)              // no-op
	PutPayload(make([]byte, 99)) // foreign capacity: ignored
	gets1, _ := PoolStats()
	if gets1 <= gets0 {
		t.Errorf("PoolStats gets did not advance: %d -> %d", gets0, gets1)
	}
}

// TestReadFramePooledAllocFree: the steady-state frame read — pooled
// payload, single ReadFull — performs zero heap allocations.
func TestReadFramePooledAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	frame := encodedBatchFrame(t, 1, benchAccesses(trace.DefaultBatchSize))
	r := bytes.NewReader(frame)
	read := func() {
		r.Seek(0, io.SeekStart)
		_, payload, err := ReadFramePooled(r)
		if err != nil {
			t.Fatal(err)
		}
		PutPayload(payload)
	}
	read() // warm the pool
	if allocs := testing.AllocsPerRun(500, read); allocs > 0 {
		t.Errorf("ReadFramePooled allocates %.2f times per frame, want 0", allocs)
	}
}

// TestDecodeColumnsIntoAllocFree: checking a full batch into warm
// columns, then unpacking every column by reading an access, performs
// zero heap allocations.
func TestDecodeColumnsIntoAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	accs := benchAccesses(trace.DefaultBatchSize)
	payload := encodedColumns(t, 1, accs)
	var cols trace.Columns
	decode := func() {
		cols.Reset()
		if _, err := DecodeColumnsInto(&cols, payload); err != nil {
			t.Fatal(err)
		}
		if cols.Len() != len(accs) {
			t.Fatalf("decoded %d accesses, want %d", cols.Len(), len(accs))
		}
		if cols.Access(len(accs)-1) != accs[len(accs)-1] {
			t.Fatal("last access changed across decode")
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(200, decode); allocs > 0 {
		t.Errorf("DecodeColumnsInto allocates %.2f times per batch, want 0", allocs)
	}
}

// TestClientEncodeColumnsAllocFree: the client's batch encode path — the
// reused column scratch and payload buffer — performs zero steady-state
// heap allocations.
func TestClientEncodeColumnsAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	accs := benchAccesses(trace.DefaultBatchSize)
	c := &Client{}
	defer c.enc.release()
	encode := func() {
		if _, err := c.enc.encode(42, accs); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm: grows the scratch buffers once
	if allocs := testing.AllocsPerRun(200, encode); allocs > 0 {
		t.Errorf("batch encode allocates %.2f times per batch, want 0", allocs)
	}
}

// TestReadFrameDirectReadNoChunkCopies: the non-pooled path must still
// read payloads of every size correctly after the chunked-append loop
// was replaced with direct reads into the destination.
func TestReadFrameDirectReadNoChunkCopies(t *testing.T) {
	for _, size := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 3 * readChunk} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var frame bytes.Buffer
		if err := WriteFrame(&frame, FrameBatchV3, payload); err != nil {
			t.Fatal(err)
		}
		_, got, err := ReadFrame(iotest(frame.Bytes()))
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size=%d: payload corrupted by direct read", size)
		}
	}
}

// iotest wraps a byte slice in a reader that returns at most 64KiB per
// Read, so multi-chunk payloads genuinely take several reads.
func iotest(data []byte) io.Reader {
	return &slowReader{data: data}
}

type slowReader struct{ data []byte }

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if n > 64<<10 {
		n = 64 << 10
	}
	if n > len(s.data) {
		n = len(s.data)
	}
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}
