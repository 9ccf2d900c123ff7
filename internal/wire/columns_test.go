package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// wireTestAccesses draws a batch mixing strided runs, random jumps and
// the full size/kind alphabet — the shapes the column encodings must
// round-trip and the corruption checks must survive.
func wireTestAccesses(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	sizes := []uint8{1, 2, 4, 8}
	accs := make([]mem.Access, n)
	addr := mem.Addr(rng.Uint64n(1 << 40))
	for i := range accs {
		if rng.Uint64n(8) == 0 {
			addr = mem.Addr(rng.Uint64())
		} else {
			addr += 64
		}
		accs[i] = mem.Access{
			Addr: addr,
			PC:   0x400000 + mem.Addr(rng.Uint64n(1<<10))*4,
			Size: sizes[rng.Uint64n(4)],
			Kind: mem.Kind(rng.Uint64n(2)),
		}
	}
	return accs
}

// TestEncodeColumnsRoundTrip: encode → decode must reproduce the batch
// and sequence number bit-exactly, for many batch shapes.
func TestEncodeColumnsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096, 10000} {
		accs := wireTestAccesses(uint64(n)+3, n)
		var cols trace.Columns
		cols.AppendBatch(accs)
		payload, err := EncodeColumns(nil, uint64(n)*7+1, &cols)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}

		var back trace.Columns
		seq, err := DecodeColumnsInto(&back, payload)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if seq != uint64(n)*7+1 {
			t.Fatalf("n=%d: seq = %d", n, seq)
		}
		got := back.AppendTo(nil)
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d accesses", n, len(got))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("n=%d: access %d changed: %v -> %v", n, i, accs[i], got[i])
			}
		}

	}
}

// TestEncodeColumnsReuse: steady-state encode and decode into reused
// scratch must not corrupt earlier results and must stay exact.
func TestEncodeColumnsReuse(t *testing.T) {
	var cols, back trace.Columns
	var payload []byte
	for round := 0; round < 5; round++ {
		accs := wireTestAccesses(uint64(round)+77, 3000)
		cols.Reset()
		cols.AppendBatch(accs)
		var err error
		payload, err = EncodeColumns(payload, uint64(round), &cols)
		if err != nil {
			t.Fatal(err)
		}
		back.Reset()
		seq, err := DecodeColumnsInto(&back, payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if seq != uint64(round) {
			t.Fatalf("round %d: seq %d", round, seq)
		}
		for i, a := range back.AppendTo(nil) {
			if a != accs[i] {
				t.Fatalf("round %d: access %d changed", round, i)
			}
		}
	}
}

// TestDecodeColumnsCorruption: every flipped byte must be caught by a
// column checksum (or a structural check) — never decode to different
// accesses, never panic.
func TestDecodeColumnsCorruption(t *testing.T) {
	accs := wireTestAccesses(5, 512)
	var cols trace.Columns
	cols.AppendBatch(accs)
	payload, err := EncodeColumns(nil, 9, &cols)
	if err != nil {
		t.Fatal(err)
	}

	// Flipping any byte after the seq prefix must fail decode: count and
	// section headers are covered by structural checks and the column
	// CRCs cover tag + data. (Seq bytes are protected by the outer frame
	// CRC in transit, not by the payload itself.)
	for off := batchSeqBytes; off < len(payload); off++ {
		mut := append([]byte(nil), payload...)
		mut[off] ^= 0x40
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, mut); err == nil {
			t.Fatalf("flipped byte %d accepted", off)
		}
	}
	// Truncation anywhere must fail.
	for cut := 0; cut < len(payload); cut++ {
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, payload[:cut]); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}
	// Trailing garbage must fail.
	var back trace.Columns
	if _, err := DecodeColumnsInto(&back, append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeColumnsCountBound: a header declaring an absurd count must
// be refused before any column scratch is grown.
func TestDecodeColumnsCountBound(t *testing.T) {
	var payload [columnsHdrBytes]byte
	binary.BigEndian.PutUint32(payload[batchSeqBytes:], MaxColumnBatch+1)
	var back trace.Columns
	if _, err := DecodeColumnsInto(&back, payload[:]); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// TestColumnsPoolRecirculates: Get/Put must hand back reusable scratch.
func TestColumnsPoolRecirculates(t *testing.T) {
	c := GetColumns()
	c.AppendBatch(wireTestAccesses(1, 100))
	PutColumns(c)
	c2 := GetColumns()
	defer PutColumns(c2)
	if c2.Len() != 0 {
		t.Fatalf("pooled columns not reset: len %d", c2.Len())
	}
	PutColumns(nil) // no-op
}

// FuzzDecodeColumns throws arbitrary bytes at the v3 batch decoder:
// malformed headers, lying section lengths, corrupt column data and
// truncation must all return errors, never panic; a payload that
// decodes must round-trip bit-exactly through the encoder.
func FuzzDecodeColumns(f *testing.F) {
	var cols trace.Columns
	cols.AppendBatch(wireTestAccesses(2, 64))
	seed, err := EncodeColumns(nil, 3, &cols)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:columnsHdrBytes])
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Helper()
		var c trace.Columns
		seq, err := DecodeColumnsInto(&c, data)
		if err != nil {
			return
		}
		re, err := EncodeColumns(nil, seq, &c)
		if err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
		var c2 trace.Columns
		seq2, err := DecodeColumnsInto(&c2, re)
		if err != nil || seq2 != seq || c2.Len() != c.Len() {
			t.Fatalf("batch does not round-trip: %v", err)
		}
		for i := 0; i < c.Len(); i++ {
			if c.Access(i) != c2.Access(i) {
				t.Fatalf("access %d changed across round-trip", i)
			}
		}
	})
}

// TestEncodeColumnsMatchesReference: the size-then-write encoder's
// payloads must be byte-identical to the reference encoder's on the
// suite kernels' batches (and on the mixed test batches), so the wire
// format never moves under a codec change.
func TestEncodeColumnsMatchesReference(t *testing.T) {
	var batches [][]mem.Access
	for _, kernel := range benchKernels {
		r, err := workloads.Build(kernel, 3, 3*benchBatch+100)
		if err != nil {
			t.Fatal(err)
		}
		accs, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(accs); off += benchBatch {
			batches = append(batches, accs[off:min(off+benchBatch, len(accs))])
		}
	}
	for _, n := range []int{0, 1, 2, 100, 4096} {
		batches = append(batches, wireTestAccesses(uint64(n)+11, n))
	}
	var cols trace.Columns
	var payload []byte
	for i, batch := range batches {
		cols.Reset()
		cols.AppendBatch(batch)
		var err error
		if payload, err = EncodeColumns(payload, uint64(i), &cols); err != nil {
			t.Fatal(err)
		}
		if want := refEncodeColumns(uint64(i), &cols); !bytes.Equal(payload, want) {
			t.Fatalf("batch %d (%d accesses): payload differs from the reference encoder (%d vs %d bytes)",
				i, len(batch), len(payload), len(want))
		}
	}
}

// TestEncodeColumnsColdAllocatesOnce: encoding an 8192-access batch
// into a nil buffer allocates exactly once — the up-front reserve — and
// the payload never outgrows it.
func TestEncodeColumnsColdAllocatesOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var cols trace.Columns
	cols.AppendBatch(wireTestAccesses(4, benchBatch))
	var payload []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if payload, err = EncodeColumns(nil, 1, &cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("cold EncodeColumns allocates %.2f times, want 1", allocs)
	}
	if want := encodeReserve(benchBatch); cap(payload) != want || len(payload) > want {
		t.Errorf("cold payload len %d cap %d, want cap %d holding the payload", len(payload), cap(payload), want)
	}
}

// fuzzColumns builds a batch from fuzz bytes, three per op: a control
// byte choosing the stride change (keep, small signed, absolute 64-bit
// jump, large shifted stride up to bit 63) and the meta bits, an
// argument byte, and a repeat count emitting constant-stride runs long
// enough for the delta-of-delta and RLE encodings to win.
func fuzzColumns(data []byte) *trace.Columns {
	var accs []mem.Access
	var addr, stride, pc mem.Addr
	for i := 0; i+3 <= len(data) && len(accs) < 1<<12; {
		ctl, arg, rep := data[i], data[i+1], int(data[i+2])
		i += 3
		switch ctl & 3 {
		case 1:
			stride = mem.Addr(int8(arg))
		case 2:
			if i+8 <= len(data) {
				addr = mem.Addr(binary.LittleEndian.Uint64(data[i:]))
				i += 8
			}
		case 3:
			stride = mem.Addr(arg) << (ctl >> 2 & 63)
		}
		if ctl&0x80 != 0 {
			pc = 0x400000 + mem.Addr(arg)*4
		}
		for range rep + 1 {
			addr += stride
			accs = append(accs, mem.Access{Addr: addr, PC: pc, Size: ctl >> 2 & 0x0f, Kind: mem.Kind(ctl >> 6 & 1)})
		}
	}
	var c trace.Columns
	c.AppendBatch(accs)
	return &c
}

// FuzzEncodeColumns: for arbitrary columns, EncodeColumns must produce
// exactly the reference encoder's bytes, both candidate address
// encodings must match their references whichever wins, and the payload
// must decode back to the same columns.
func FuzzEncodeColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x40, 0xff, 0x00, 0x00, 0x10})
	f.Add([]byte{0x02, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7, 0x80, 0xff, 0x05, 0x07})
	f.Add([]byte{0xff, 0x01, 0x20, 0x7e, 0xff, 0x03, 0x81, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		cols := fuzzColumns(data)
		payload, err := EncodeColumns(nil, 7, cols)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncodeColumns(7, cols); !bytes.Equal(payload, want) {
			t.Fatalf("%d accesses: payload differs from the reference encoder", cols.Len())
		}
		for _, vals := range [][]mem.Addr{cols.Addrs, cols.PCs} {
			deltaLen, dodLen := trace.AddrColumnLens(vals)
			buf := make([]byte, max(deltaLen, dodLen)+trace.ColumnSlack)
			if n := trace.PutDeltaColumn(buf, vals); !bytes.Equal(buf[:n], refAppendDeltaColumn(nil, vals)) || n != deltaLen {
				t.Fatalf("delta column differs from the reference")
			}
			if n := trace.PutDoDColumn(buf, vals); !bytes.Equal(buf[:n], refAppendDoDColumn(nil, vals)) || n != dodLen {
				t.Fatalf("delta-of-delta column differs from the reference")
			}
		}
		var back trace.Columns
		if seq, err := DecodeColumnsInto(&back, payload); err != nil || seq != 7 || back.Len() != cols.Len() {
			t.Fatalf("payload does not decode: seq %d, %d accesses, err %v", seq, back.Len(), err)
		}
		for i := range cols.Len() {
			if back.Access(i) != cols.Access(i) {
				t.Fatalf("access %d changed across round-trip", i)
			}
		}
	})
}
