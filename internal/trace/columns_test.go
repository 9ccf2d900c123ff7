package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// randomAccesses draws a mixed batch: strided runs, random jumps, the
// full size/kind alphabet, and extreme addresses that stress the
// zig-zag delta encoding.
func randomAccesses(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	sizes := []uint8{1, 2, 4, 8}
	accs := make([]mem.Access, n)
	addr := mem.Addr(rng.Uint64n(1 << 40))
	pc := mem.Addr(0x400000)
	for i := range accs {
		switch rng.Uint64n(8) {
		case 0: // random jump, occasionally to an extreme
			if rng.Uint64n(16) == 0 {
				addr = mem.Addr(rng.Uint64())
			} else {
				addr = mem.Addr(rng.Uint64n(1 << 44))
			}
			pc = 0x400000 + mem.Addr(rng.Uint64n(1<<12))*4
		case 1:
			addr -= 64
		default: // strided run
			addr += 64
		}
		accs[i] = mem.Access{
			Addr: addr,
			PC:   pc,
			Size: sizes[rng.Uint64n(4)],
			Kind: mem.Kind(rng.Uint64n(2)),
		}
	}
	return accs
}

// putColumn writes one column of the sized length n with put, checking
// that the encoder writes exactly what the sizing pass promised and
// stays within the promised ColumnSlack.
func putColumn(t testing.TB, n int, put func([]byte) int) []byte {
	t.Helper()
	buf := make([]byte, n+ColumnSlack)
	if got := put(buf); got != n {
		t.Fatalf("encoder wrote %d bytes, sizing pass said %d", got, n)
	}
	return buf[:n]
}

func packedColumn(t testing.TB, vals []mem.Addr) []byte {
	n, _ := AddrColumnLens(vals)
	return putColumn(t, n, func(b []byte) int { return PutPackedColumn(b, vals) })
}

func dodColumn(t testing.TB, vals []mem.Addr) []byte {
	_, n := AddrColumnLens(vals)
	return putColumn(t, n, func(b []byte) int { return PutDoDColumn(b, vals) })
}

func rleColumn(t testing.TB, vals []byte) []byte {
	return putColumn(t, RLEColumnLen(vals), func(b []byte) int { return PutRLEColumn(b, vals) })
}

// TestColumnsRoundTrip: batch -> columns -> column encodings -> decode
// must reproduce the accesses bit-exactly, for batches of many shapes.
func TestColumnsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 4096} {
		accs := randomAccesses(uint64(n)+1, n)
		var c Columns
		c.AppendBatch(accs)
		if c.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, c.Len())
		}

		for _, enc := range []string{"packed", "dod"} {
			var addrCol, pcCol []byte
			if enc == "packed" {
				addrCol = packedColumn(t, c.Addrs())
				pcCol = packedColumn(t, c.PCs())
			} else {
				addrCol = dodColumn(t, c.Addrs())
				pcCol = dodColumn(t, c.PCs())
			}
			metaCol := rleColumn(t, c.Meta())

			decode := func(col []byte) ([]mem.Addr, error) {
				if enc == "packed" {
					return DecodePackedColumn(nil, col, n)
				}
				return DecodeDoDColumn(nil, col, n)
			}
			addrs, err := decode(addrCol)
			if err != nil {
				t.Fatalf("n=%d %s: addr column: %v", n, enc, err)
			}
			pcs, err := decode(pcCol)
			if err != nil {
				t.Fatalf("n=%d %s: pc column: %v", n, enc, err)
			}
			meta, err := DecodeRLEColumn(nil, metaCol, n)
			if err != nil {
				t.Fatalf("n=%d %s: meta column: %v", n, enc, err)
			}
			back := Columns{addrs: addrs, pcs: pcs, meta: meta, n: n}
			got := back.AppendTo(nil)
			if len(got) != n {
				t.Fatalf("n=%d %s: decoded %d accesses", n, enc, len(got))
			}
			for i := range got {
				if got[i] != accs[i] {
					t.Fatalf("n=%d %s: access %d changed: %v -> %v", n, enc, i, accs[i], got[i])
				}
			}
		}
	}
}

// TestColumnsZigzagExtremes: deltas at the int64 boundaries must
// survive the zig-zag mapping, and pack at the full 64-bit width.
func TestColumnsZigzagExtremes(t *testing.T) {
	vals := []mem.Addr{0, math.MaxUint64, 0, 1 << 63, 42, math.MaxInt64, 0}
	col := packedColumn(t, vals)
	if col[0] != 64 {
		t.Fatalf("packed width %d, want 64", col[0])
	}
	got, err := DecodePackedColumn(nil, col, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("packed value %d: %#x -> %#x", i, uint64(vals[i]), uint64(got[i]))
		}
	}
	dod := dodColumn(t, vals)
	got, err = DecodeDoDColumn(nil, dod, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dod value %d: %#x -> %#x", i, uint64(vals[i]), uint64(got[i]))
		}
	}
}

// TestDecodeColumnCorruption: malformed columns fail descriptively.
func TestDecodeColumnCorruption(t *testing.T) {
	vals := []mem.Addr{1, 2, 3}
	col := packedColumn(t, vals)
	if _, err := DecodePackedColumn(nil, col[:len(col)-1], len(vals)); err == nil {
		t.Error("truncated packed column accepted")
	}
	if _, err := DecodePackedColumn(nil, append(append([]byte(nil), col...), 0), len(vals)); err == nil {
		t.Error("packed column with trailing byte accepted")
	}
	if _, err := DecodePackedColumn(nil, []byte{65, 0, 0, 0, 0, 0, 0, 0, 0}, 1); err == nil {
		t.Error("packed block of width 65 accepted")
	}
	if _, err := DecodePackedColumn(nil, []byte{8, 1, 2}, 3); err == nil {
		t.Error("packed block overrunning its column accepted")
	}
	if _, err := DecodePackedColumn(nil, append(bytes.Repeat([]byte{0}, PackBlock), 0), PackBlock+1); err == nil {
		t.Error("packed column missing its second block accepted")
	}
	if _, err := DecodeDoDColumn(nil, bytes.Repeat([]byte{0x80}, 11), 1); err == nil {
		t.Error("overlong varint accepted")
	}

	dod := dodColumn(t, []mem.Addr{1, 2, 100, 3})
	if _, err := DecodeDoDColumn(nil, dod[:len(dod)-1], 4); err == nil {
		t.Error("truncated dod column accepted")
	}
	if _, err := DecodeDoDColumn(nil, append(append([]byte(nil), dod...), 0), 4); err == nil {
		t.Error("dod column with trailing byte accepted")
	}
	if _, err := DecodeDoDColumn(nil, []byte{9}, 3); err == nil {
		t.Error("dod zero-run past count accepted")
	}

	meta := rleColumn(t, []byte{5, 5, 5, 7})
	if _, err := DecodeRLEColumn(nil, meta, 3); err == nil {
		t.Error("RLE column running past count accepted")
	}
	if _, err := DecodeRLEColumn(nil, meta[:1], 4); err == nil {
		t.Error("RLE column cut inside a run accepted")
	}
	if _, err := DecodeRLEColumn(nil, []byte{5, 0}, 0); err == nil {
		t.Error("zero-length run with trailing bytes accepted")
	}
}

// TestColumnCompression pins the point of the layout: strided and
// sequential streams must collapse under the delta-of-delta encoding,
// far below RDT3's several bytes per access.
func TestColumnCompression(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      Reader
		budget float64 // bytes/access, all three columns
	}{
		{"sequential", Sequential(0, 1<<14, 64), 0.1},
		{"strided", Strided(0, 8, 1<<10, 64, 1<<14), 1.5},
	} {
		accs, err := Collect(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		var c Columns
		c.AppendBatch(accs)
		pick := func(vals []mem.Addr) int {
			return min(len(packedColumn(t, vals)), len(dodColumn(t, vals)))
		}
		total := pick(c.Addrs()) + pick(c.PCs()) + len(rleColumn(t, c.Meta()))
		perAccess := float64(total) / float64(len(accs))
		t.Logf("%s: %.3f bytes/access columnar", tc.name, perAccess)
		if perAccess > tc.budget {
			t.Errorf("%s stream encodes at %.3f bytes/access, want <= %.2f", tc.name, perAccess, tc.budget)
		}
	}
}

// TestUvarintMatchesBinary: the word-at-a-time varint decoder must agree
// with binary.Uvarint — value and byte count, truncation (0) and
// overflow (< 0) alike — at every offset of a buffer cut at every
// length, so varints end inside the last 8 bytes as well as before
// them. The buffer holds varints of every length 1-10, values with bit
// 63 set, a non-canonical zero, an 11-byte overlong varint and a 10-byte
// varint overflowing 64 bits.
func TestUvarintMatchesBinary(t *testing.T) {
	var buf []byte
	for shift := 0; shift < 64; shift += 7 {
		buf = binary.AppendUvarint(buf, 1<<shift)
		buf = binary.AppendUvarint(buf, 1<<shift-1)
	}
	buf = binary.AppendUvarint(buf, 1<<63)
	buf = binary.AppendUvarint(buf, math.MaxUint64)
	buf = append(buf, 0x80, 0x00)
	buf = append(append(buf, bytes.Repeat([]byte{0x80}, 10)...), 0x01)
	buf = append(append(buf, bytes.Repeat([]byte{0xff}, 9)...), 0x02)
	for cut := 0; cut <= len(buf); cut++ {
		data := buf[:cut]
		for pos := 0; pos <= cut; pos++ {
			u, n := uvarint(data, pos)
			wu, wn := binary.Uvarint(data[pos:])
			if u != wu || n != wn {
				t.Fatalf("cut %d pos %d: uvarint = (%#x, %d), binary.Uvarint = (%#x, %d)", cut, pos, u, n, wu, wn)
			}
		}
	}
}

// TestDecodeColumnVarintBoundaries: address columns whose last value is
// a long delta — 8, 9 and 10 varint bytes, 56-64 packed bits, bit 63
// set — placed at every alignment against the column end must
// round-trip under both encodings, every truncation of a packed column
// must wrap ErrTruncated, and an 11-byte overlong varint must be refused
// as an overflow.
func TestDecodeColumnVarintBoundaries(t *testing.T) {
	for _, tail := range []mem.Addr{1 << 55, 1 << 56, 1 << 62, 1 << 63, math.MaxUint64} {
		for lead := 0; lead < 10; lead++ {
			vals := make([]mem.Addr, 0, lead+2)
			for i := range lead {
				vals = append(vals, mem.Addr(i*3))
			}
			vals = append(vals, tail, tail^0x5a)
			for _, enc := range []struct {
				name   string
				col    []byte
				decode func([]mem.Addr, []byte, int) ([]mem.Addr, error)
			}{
				{"packed", packedColumn(t, vals), DecodePackedColumn},
				{"dod", dodColumn(t, vals), DecodeDoDColumn},
			} {
				got, err := enc.decode(nil, enc.col, len(vals))
				if err != nil {
					t.Fatalf("%s tail %#x lead %d: %v", enc.name, uint64(tail), lead, err)
				}
				if !slices.Equal(got, vals) {
					t.Fatalf("%s tail %#x lead %d: decoded %#x, want %#x", enc.name, uint64(tail), lead, got, vals)
				}
				if enc.name != "packed" {
					continue
				}
				for cut := range len(enc.col) {
					if _, err := enc.decode(nil, enc.col[:cut], len(vals)); !errors.Is(err, ErrTruncated) {
						t.Fatalf("packed tail %#x lead %d cut %d: err %v, want ErrTruncated", uint64(tail), lead, cut, err)
					}
				}
			}
		}
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, pad := range []int{0, 8} {
		col := append(overlong, bytes.Repeat([]byte{0}, pad)...)
		if _, err := DecodeDoDColumn(nil, col, 1+pad); err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("11-byte overlong varint (pad %d): err %v, want an overflow error", pad, err)
		}
	}
}

// TestPackedColumnWidths: every block width 0-64, in blocks that end a
// column at each length around PackBlock, must round-trip and be sized
// exactly; the packed bytes of each block must sit exactly where the
// width byte says. Values are built from their zig-zag deltas, so each
// block's width is the one asked for.
func TestPackedColumnWidths(t *testing.T) {
	rng := stats.NewRNG(9)
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{1, 7, 8, PackBlock - 1, PackBlock, PackBlock + 1, 3*PackBlock + 2} {
			vals := make([]mem.Addr, n)
			var prev mem.Addr
			for i := range vals {
				var z uint64
				if w > 0 {
					z = rng.Uint64()>>(64-w) | 1<<(w-1)
				}
				prev += mem.Addr(unzigzag(z))
				vals[i] = prev
			}
			col := packedColumn(t, vals)
			if want := n/PackBlock*(1+packedLen(PackBlock, w)) + min(n%PackBlock, 1)*(1+packedLen(n%PackBlock, w)); len(col) != want {
				t.Fatalf("w=%d n=%d: %d bytes, want %d", w, n, len(col), want)
			}
			if uint(col[0]) != w {
				t.Fatalf("w=%d n=%d: first block width %d", w, n, col[0])
			}
			got, err := DecodePackedColumn([]mem.Addr{7}, col, n)
			if err != nil || !slices.Equal(got[1:], vals) || got[0] != 7 {
				t.Fatalf("w=%d n=%d: round trip onto a non-empty dst: %v", w, n, err)
			}
		}
	}
}

// TestColumnCodecBulkRuns: long zero runs and long RLE runs decode by
// bulk fill; runs of every length around the word size must land
// exactly, including ones that end the column.
func TestColumnCodecBulkRuns(t *testing.T) {
	for run := 1; run < 40; run++ {
		vals := make([]mem.Addr, 0, 2*run+3)
		meta := make([]byte, 0, 2*run+3)
		for i := range run {
			vals = append(vals, mem.Addr(64*i))
			meta = append(meta, 3)
		}
		vals = append(vals, 7, 9)
		meta = append(meta, 4, 5)
		for i := range run {
			vals = append(vals, mem.Addr(100+8*i))
			meta = append(meta, 6)
		}
		got, err := DecodeDoDColumn(nil, dodColumn(t, vals), len(vals))
		if err != nil || !slices.Equal(got, vals) {
			t.Fatalf("run %d: dod round trip: %v", run, err)
		}
		gotMeta, err := DecodeRLEColumn([]byte{1, 2}, rleColumn(t, meta), len(meta))
		if err != nil || !bytes.Equal(gotMeta, append([]byte{1, 2}, meta...)) {
			t.Fatalf("run %d: RLE round trip onto a non-empty dst: %v", run, err)
		}
	}
}
