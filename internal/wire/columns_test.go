package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// edgeSizes are batch lengths around the packed columns' block size
// and the client's batch size: empty, one value, one short of a block,
// exactly one, one past it, and one short of and exactly a full batch.
var edgeSizes = []int{0, 1, trace.PackBlock - 1, trace.PackBlock, trace.PackBlock + 1, benchBatch - 1, benchBatch}

// edgeWidths are packed block widths at the unpacker's edges: none, one
// bit, the widest a single word load covers (56), the narrowest that
// straddles 9 bytes (57), and the two widest.
var edgeWidths = []uint{0, 1, 56, 57, 63, 64}

// widthAccesses draws n accesses whose address and PC columns pack at
// exactly width w: every zig-zag delta fits in w bits and the first
// delta of each block uses all of them. The deltas are random within the
// width, so delta-of-delta never wins and the packed encoding is the one
// written; at w = 64 they include wraps by about ±2^63.
func widthAccesses(seed uint64, w uint, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	col := func() []mem.Addr {
		vals := make([]mem.Addr, n)
		var prev mem.Addr
		for i := range vals {
			var z uint64
			if w > 0 {
				z = rng.Uint64() >> (64 - w)
				if i%trace.PackBlock == 0 {
					z |= 1 << (w - 1)
				}
			}
			prev += mem.Addr(int64(z>>1) ^ -int64(z&1))
			vals[i] = prev
		}
		return vals
	}
	addrs, pcs := col(), col()
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Addr: addrs[i], PC: pcs[i], Size: 8, Kind: mem.Kind(i & 1)}
	}
	return accs
}

// wrapAccesses draws n accesses at the ends of the address space: every
// address lies within 64 B of 0 or of 2^64, or of 2^63, so deltas wrap
// around 2^64 and jump by about ±2^63.
func wrapAccesses(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	bases := []mem.Addr{0, 1 << 63, 0}
	accs := make([]mem.Access, n)
	for i := range accs {
		off := mem.Addr(rng.Uint64n(64))
		if rng.Uint64n(2) == 0 {
			off = ^off // within 64 B below 2^64 (or below 2^63)
		}
		accs[i] = mem.Access{Addr: bases[rng.Uint64n(3)] + off, PC: off, Size: 4, Kind: mem.Store}
	}
	return accs
}

// edgeBatches are the block-boundary, width-edge and wrap-around
// batches the codec tests encode next to real kernels' batches.
func edgeBatches() [][]mem.Access {
	var b [][]mem.Access
	for _, n := range edgeSizes {
		b = append(b, wireTestAccesses(uint64(n)+11, n), wrapAccesses(uint64(n)+13, n))
	}
	for _, w := range edgeWidths {
		b = append(b, widthAccesses(uint64(w)+17, w, 2*trace.PackBlock+5))
	}
	return b
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

// TestDecodeColumnsIntoCopiesPayload: the packed columns are copied
// out of the payload, so a payload buffer overwritten once
// DecodeColumnsInto returns — the daemon hands it back to the pool at
// once — does not change the accesses its columns unpack to. The
// batches cover packed and delta-of-delta address columns and raw and
// run-length meta columns.
func TestDecodeColumnsIntoCopiesPayload(t *testing.T) {
	strided := make([]mem.Access, 3000)
	for i := range strided {
		strided[i] = mem.Access{Addr: 0x10000 + mem.Addr(i)*8, PC: 0x400000, Size: 8}
	}
	for _, accs := range [][]mem.Access{wireTestAccesses(5, 3000), strided} {
		payload := encodedColumns(t, 1, accs)
		var cols trace.Columns
		if _, err := DecodeColumnsInto(&cols, payload); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = ^payload[i]
		}
		if got := cols.AppendTo(nil); !slices.Equal(got, accs) {
			t.Fatal("accesses changed when the payload was overwritten")
		}
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

// resealed returns a copy of payload with every column section's crc
// recomputed over its (possibly mutated) data, as far as the section
// headers parse, so fuzzed bytes reach the column decoders instead of
// stopping at a checksum.
func resealed(payload []byte) []byte {
	out := slices.Clone(payload)
	for off := columnsHdrBytes; off+colSectionHdr <= len(out); {
		n := int(binary.BigEndian.Uint32(out[off+1:]))
		if n > len(out)-off-colSectionHdr {
			break
		}
		data := out[off+colSectionHdr : off+colSectionHdr+n]
		binary.BigEndian.PutUint32(out[off+5:], colCRC(out[off], data))
		off += colSectionHdr + n
	}
	return out
}

// FuzzDecodeColumns throws arbitrary bytes at the batch decoder, both as
// given and resealed (section crcs recomputed, so mutations get past the
// checksums): malformed headers, lying section lengths, block widths
// over 64, blocks overrunning their section, truncation and trailing
// bytes must all return errors, never panic. The decoder accepts a
// payload if and only if the per-column unpackers accept every section
// (refDecodeColumns), and its columns unpack to their values. A payload
// that decodes must re-encode to no more bytes than it was given, and
// the re-encoding must decode to the same accesses.
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
	// One payload per packed width edge, and the wrap-around batch.
	for _, w := range edgeWidths {
		cols.Reset()
		cols.AppendBatch(widthAccesses(uint64(w)+5, w, trace.PackBlock+3))
		p, err := EncodeColumns(nil, uint64(w), &cols)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	cols.Reset()
	cols.AppendBatch(wrapAccesses(7, 200))
	wrap, err := EncodeColumns(nil, 9, &cols)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Helper()
		for _, payload := range [][]byte{data, resealed(data)} {
			var c trace.Columns
			seq, err := DecodeColumnsInto(&c, payload)
			addrs, pcs, meta, refErr := refDecodeColumns(payload)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodeColumnsInto error %v, per-column unpackers' error %v", err, refErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(c.Addrs(), addrs) || !slices.Equal(c.PCs(), pcs) || !slices.Equal(c.Meta(), meta) {
				t.Fatal("packed columns unpack to other values than the per-column unpackers")
			}
			re, err := EncodeColumns(nil, seq, &c)
			if err != nil {
				t.Fatalf("decoded batch fails to re-encode: %v", err)
			}
			if len(re) > len(payload) {
				t.Fatalf("accepted %d-byte payload re-encodes to %d bytes", len(payload), len(re))
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
		}
	})
}

// TestPackedWidthEdges: each width-edge batch must be written as packed
// address and PC sections whose first block has exactly that width, and
// must round-trip bit-exactly.
func TestPackedWidthEdges(t *testing.T) {
	for _, w := range edgeWidths {
		n := 3*trace.PackBlock + 1
		if w == 0 {
			n = trace.PackBlock - 1 // longer all-zero runs go to delta-of-delta
		}
		accs := widthAccesses(uint64(w)+23, w, n)
		var cols trace.Columns
		cols.AppendBatch(accs)
		payload, err := EncodeColumns(nil, 1, &cols)
		if err != nil {
			t.Fatal(err)
		}
		rest := payload[columnsHdrBytes:]
		for _, name := range []string{"address", "pc"} {
			tag, col, next, err := splitSection(rest, name)
			if err != nil {
				t.Fatal(err)
			}
			if tag != colEncPacked || len(col) == 0 || uint(col[0]) != w {
				t.Fatalf("width %d: %s section tag %#x, first width %v, want packed at width %d", w, name, tag, col[:min(len(col), 1)], w)
			}
			rest = next
		}
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, payload); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if got := back.AppendTo(nil); !slices.Equal(got, accs) {
			t.Fatalf("width %d: batch changed across round-trip", w)
		}
	}
}

// TestDecodeColumnsPackedCorruption: packed sections whose checksums are
// intact but whose blocks are malformed — a width over 64, a block
// overrunning its section, bytes after the last block — are errors.
func TestDecodeColumnsPackedCorruption(t *testing.T) {
	var cols trace.Columns
	cols.AppendBatch(widthAccesses(3, 9, 2*trace.PackBlock))
	payload, err := EncodeColumns(nil, 1, &cols)
	if err != nil {
		t.Fatal(err)
	}
	addr := columnsHdrBytes // the address section's header
	if payload[addr] != colEncPacked {
		t.Fatalf("address section has tag %#x, want packed", payload[addr])
	}
	body := addr + colSectionHdr
	secondBlock := body + 1 + 9*trace.PackBlock/8
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"width 65", func(p []byte) []byte { p[body] = 65; return p }},
		{"width 255", func(p []byte) []byte { p[secondBlock] = 255; return p }},
		// A wider second block needs more bytes than the section holds.
		{"overrun", func(p []byte) []byte { p[secondBlock] = 10; return p }},
		// One byte more in the address section, after its last block.
		{"trailing", func(p []byte) []byte {
			n := binary.BigEndian.Uint32(p[addr+1:])
			binary.BigEndian.PutUint32(p[addr+1:], n+1)
			end := body + int(n)
			return append(p[:end:end], append([]byte{0}, p[end:]...)...)
		}},
	} {
		mut := resealed(tc.mutate(slices.Clone(payload)))
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, mut); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := DecodeColumnsInto(&cols, resealed(payload)); err != nil {
		t.Fatalf("resealing an intact payload broke it: %v", err)
	}
}

// TestEncodeColumnsMatchesReference: the production encoder's
// payloads must be byte-identical to the reference encoder's on the
// suite kernels' batches and on the edge batches (block boundaries,
// width edges, wrap-around deltas), so the wire format never moves
// under a codec change.
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
	batches = append(batches, edgeBatches()...)
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
	// Jumps to 2^64-8 and 0x55.. with a 2^62 stride: 57-64-bit widths.
	f.Add([]byte{0x02, 0x00, 0x02, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb, 0x01, 0x81, 0x02, 0x00, 0x00, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x7f, 0x01, 0x03})
	// trace.PutAddrColumn's edges: one value at 2^64-64 and a stride of
	// 64 over 3 values, where the two encodings tie; the same stride
	// over 4 values, where delta-of-delta is one byte shorter; a block of
	// irregular strides followed by 145 values of stride 64 (a tie) or
	// 146 (one byte shorter), where the packed column is written first;
	// a stride-led first block followed by irregular strides; and an
	// irregular first block followed by a long constant stride.
	f.Add([]byte{0x02, 0x00, 0x00, 0xc0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x40, 0x02})
	f.Add([]byte{0x01, 0x40, 0x03})
	var irregular []byte
	for i := range trace.PackBlock {
		irregular = append(irregular, 0x81, byte(i*37), 0x00)
	}
	f.Add(append(slices.Clip(irregular), 0x01, 0x40, 144))
	f.Add(append(slices.Clip(irregular), 0x01, 0x40, 145))
	f.Add(append([]byte{0x01, 0x40, trace.PackBlock - 1}, irregular...))
	f.Add(append(irregular, bytes.Repeat([]byte{0x01, 0x40, 0xff}, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cols := fuzzColumns(data)
		payload, err := EncodeColumns(nil, 7, cols)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncodeColumns(7, cols); !bytes.Equal(payload, want) {
			t.Fatalf("%d accesses: payload differs from the reference encoder", cols.Len())
		}
		for _, vals := range [][]mem.Addr{cols.Addrs(), cols.PCs()} {
			packedLen, dodLen := trace.AddrColumnLens(vals)
			buf := make([]byte, max(packedLen, dodLen)+trace.ColumnSlack)
			if n := trace.PutPackedColumn(buf, vals); !bytes.Equal(buf[:n], refAppendPackedColumn(nil, vals)) || n != packedLen {
				t.Fatalf("packed column differs from the reference")
			} else if back, err := trace.DecodePackedColumn(nil, buf[:n], len(vals)); err != nil || !slices.Equal(back, vals) {
				t.Fatalf("packed column does not decode back: %v", err)
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

// TestEncodeColumnsRefusesUnfitAccess: a batch holding an access the
// meta byte cannot carry fails to encode with an error wrapping
// trace.ErrUnfitAccess and naming the access, instead of shipping it
// with its size masked to 4 bits: a 16-byte access would arrive 0
// bytes wide, and a remote profile would silently differ from the
// local one.
func TestEncodeColumnsRefusesUnfitAccess(t *testing.T) {
	accs := wireTestAccesses(5, 100)
	for _, bad := range []mem.Access{
		{Addr: 0xabc0, Size: 16},
		{Addr: 0xabc0, Size: 8, Kind: 2},
	} {
		batch := slices.Clone(accs)
		batch[37] = bad
		var cols trace.Columns
		cols.AppendBatch(batch)
		_, err := EncodeColumns(nil, 9, &cols)
		if !errors.Is(err, trace.ErrUnfitAccess) {
			t.Fatalf("%v: got %v, want ErrUnfitAccess", bad, err)
		}
		if !strings.Contains(err.Error(), "access 37 at 0xabc0") {
			t.Errorf("error %q does not name the access", err)
		}
	}
}

// TestDecodeColumnsRejectsInvalidMeta: a meta byte with a bit set that
// no packed access sets (bits 5-7) is refused, even under a valid
// checksum. Accepted, it would decode to an access no encoder was
// given, and the batch would fail to re-encode.
func TestDecodeColumnsRejectsInvalidMeta(t *testing.T) {
	const n = 100
	var cols trace.Columns
	cols.AppendBatch(wireTestAccesses(5, n))
	payload, err := EncodeColumns(nil, 1, &cols)
	if err != nil {
		t.Fatal(err)
	}
	metaOff := len(payload) - n // the raw meta section ends the payload
	if payload[metaOff-colSectionHdr] != colEncRaw {
		t.Fatalf("meta section is not raw: tag %#x", payload[metaOff-colSectionHdr])
	}
	for _, i := range []int{0, 37, n - 1} {
		bad := slices.Clone(payload)
		bad[metaOff+i] |= 0x80
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, resealed(bad)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("access %d is not a packed access", i)) {
			t.Errorf("meta byte %d set to %#x: got %v, want it refused", i, bad[metaOff+i], err)
		}
	}
}
