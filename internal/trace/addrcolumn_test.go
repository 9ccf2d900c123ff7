package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Tests of PutAddrColumn's one-pass encoding: the delta-of-delta lower
// bound its packing pass sums, and that it writes exactly the encoding
// and bytes that sizing both candidates exactly would choose. They live
// in the external test package because the suite kernels come from
// internal/workloads, which imports trace.

type addrColumn struct {
	name string
	vals []mem.Addr
}

// checkAddrColumn holds one column to PutAddrColumn's contract. It
// returns whether the column is written delta-of-delta and whether the
// bound reaches the packed length, so the exact delta-of-delta length
// is not computed:
//   - the packing pass returns the exact packed length and a lower bound
//     no larger than the exact delta-of-delta length (AddrColumnLens);
//   - PutAddrColumn, into a garbage-filled buffer of exactly
//     PackedColumnMax plus ColumnSlack bytes, writes the smaller encoding
//     (packed on a tie) byte for byte as the one-encoding writers do.
func checkAddrColumn(t *testing.T, c addrColumn) (dod, pruned bool) {
	t.Helper()
	packed, dodLen := trace.AddrColumnLens(c.vals)
	size := trace.PackedColumnMax(len(c.vals)) + trace.ColumnSlack
	scratch := make([]byte, size)
	n, bound := trace.PackColumn(scratch, c.vals)
	if n != packed {
		t.Fatalf("%s: packing pass wrote %d bytes, AddrColumnLens says %d", c.name, n, packed)
	}
	if bound > dodLen {
		t.Fatalf("%s: delta-of-delta bound %d exceeds the exact length %d", c.name, bound, dodLen)
	}
	want := make([]byte, max(packed, dodLen)+trace.ColumnSlack)
	wantDoD := dodLen < packed
	var wn int
	if wantDoD {
		wn = trace.PutDoDColumn(want, c.vals)
	} else {
		wn = trace.PutPackedColumn(want, c.vals)
	}
	got := bytes.Repeat([]byte{0xa5}, size)
	gn, gotDoD := trace.PutAddrColumn(got, c.vals)
	if gotDoD != wantDoD || !bytes.Equal(got[:gn], want[:wn]) {
		t.Fatalf("%s: PutAddrColumn wrote %d bytes (delta-of-delta %v); exact sizing picks %d bytes (delta-of-delta %v) of packed %d, delta-of-delta %d",
			c.name, gn, gotDoD, wn, wantDoD, packed, dodLen)
	}
	return gotDoD, bound >= n
}

// kernelColumns slices a suite kernel's trace into 8192-access batches,
// as a streaming session sends them, and returns their address and PC
// columns.
func kernelColumns(t *testing.T, kernel string, batches int) []addrColumn {
	t.Helper()
	const batch = 8192
	r, err := workloads.Build(kernel, 1, uint64(batches*batch))
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	var cols []addrColumn
	for b := 0; b*batch < len(accs); b++ {
		var c trace.Columns
		c.AppendBatch(accs[b*batch : min((b+1)*batch, len(accs))])
		cols = append(cols,
			addrColumn{fmt.Sprintf("%s/batch%d/addrs", kernel, b), c.Addrs()},
			addrColumn{fmt.Sprintf("%s/batch%d/pcs", kernel, b), c.PCs()})
	}
	return cols
}

// fromDeltas builds a column by prefix-summing deltas from 0.
func fromDeltas(deltas []mem.Addr) []mem.Addr {
	vals := make([]mem.Addr, len(deltas))
	var v mem.Addr
	for i, d := range deltas {
		v += d
		vals[i] = v
	}
	return vals
}

// irregularDeltas draws n deltas in [-8, 8): nearly every one changes
// the stride, each by a one-byte second-order delta.
func irregularDeltas(rng *stats.RNG, n int) []mem.Addr {
	d := make([]mem.Addr, n)
	for i := range d {
		d[i] = mem.Addr(rng.Uint64n(16)) - 8
	}
	return d
}

// strideDeltas is n deltas of one stride.
func strideDeltas(stride mem.Addr, n int) []mem.Addr {
	d := make([]mem.Addr, n)
	for i := range d {
		d[i] = stride
	}
	return d
}

// widthColumn draws n values whose zig-zag deltas are random in w bits,
// the first of each block using all w, so every block packs at width w.
func widthColumn(rng *stats.RNG, w uint, n int) []mem.Addr {
	d := make([]mem.Addr, n)
	for i := range d {
		var z uint64
		if w > 0 {
			z = rng.Uint64() >> (64 - w)
			if i%trace.PackBlock == 0 {
				z |= 1 << (w - 1)
			}
		}
		d[i] = mem.Addr(int64(z>>1) ^ -int64(z&1))
	}
	return fromDeltas(d)
}

// wrapColumn draws n values within 64 B of 0, 2^63 or 2^64, so deltas
// wrap around 2^64 and jump by about ±2^63.
func wrapColumn(rng *stats.RNG, n int) []mem.Addr {
	bases := []mem.Addr{0, 1 << 63}
	vals := make([]mem.Addr, n)
	for i := range vals {
		off := mem.Addr(rng.Uint64n(64))
		if rng.Uint64n(2) == 0 {
			off = ^off
		}
		vals[i] = bases[rng.Uint64n(2)] + off
	}
	return vals
}

// randomColumn mixes strided runs, small stride changes and random
// jumps, some to anywhere in the address space.
func randomColumn(rng *stats.RNG, n int) []mem.Addr {
	vals := make([]mem.Addr, n)
	v, stride := mem.Addr(rng.Uint64n(1<<40)), mem.Addr(64)
	for i := range vals {
		switch rng.Uint64n(8) {
		case 0:
			v = mem.Addr(rng.Uint64())
		case 1:
			stride = mem.Addr(rng.Uint64n(256)) - 128
		}
		v += stride
		vals[i] = v
	}
	return vals
}

// TestAddrColumnBound holds PutAddrColumn to exact sizing on the suite
// kernels' batches, on columns at the packer's edges (block-boundary
// lengths, widths 0/1/56/57/63/64, deltas wrapping around 2^64) and on
// random columns. On the kernels it also pins where the bound pays:
// every lbm column is written delta-of-delta, and on the three
// irregular kernels the bound reaches the packed length on every
// address and PC column.
func TestAddrColumnBound(t *testing.T) {
	for _, kernel := range []string{"lbm", "mcf", "xalancbmk", "exchange2"} {
		for _, c := range kernelColumns(t, kernel, 16) {
			dod, pruned := checkAddrColumn(t, c)
			if kernel == "lbm" && !dod {
				t.Errorf("%s: written packed, want delta-of-delta", c.name)
			}
			if kernel != "lbm" && !pruned {
				t.Errorf("%s: bound below the packed length, the exact pass runs", c.name)
			}
		}
	}
	rng := stats.NewRNG(23)
	var cols []addrColumn
	for _, n := range []int{0, 1, trace.PackBlock - 1, trace.PackBlock, trace.PackBlock + 1} {
		cols = append(cols,
			addrColumn{fmt.Sprintf("random/n=%d", n), randomColumn(rng, n)},
			addrColumn{fmt.Sprintf("wrap/n=%d", n), wrapColumn(rng, n)},
			addrColumn{fmt.Sprintf("stride/n=%d", n), fromDeltas(strideDeltas(64, n))})
	}
	for _, w := range []uint{0, 1, 56, 57, 63, 64} {
		cols = append(cols, addrColumn{fmt.Sprintf("width=%d", w), widthColumn(rng, w, 2*trace.PackBlock+5)})
	}
	for i := range 16 {
		cols = append(cols, addrColumn{fmt.Sprintf("random/%d", i), randomColumn(rng, 1+int(rng.Uint64n(8192)))})
	}
	for _, c := range cols {
		checkAddrColumn(t, c)
	}
}

// TestAddrColumnTies: delta-of-delta is written only when strictly
// shorter, on both of PutAddrColumn's paths. Short constant strides of
// 64 (first block stride-led, so sized exactly) tie at 3 values and
// save one byte at 4; an irregular first block followed by a run of
// constant stride (the bound path) is searched for a run length where
// the two encodings tie and one where delta-of-delta is one byte
// shorter.
func TestAddrColumnTies(t *testing.T) {
	for _, tc := range []struct {
		vals         []mem.Addr
		packed, dod  int
		wantDoD, led bool
		name         string
	}{
		{[]mem.Addr{1<<64 - 64}, 2, 2, false, false, "one value, tie"},
		{fromDeltas(strideDeltas(64, 3)), 4, 4, false, true, "stride x3, tie"},
		{fromDeltas(strideDeltas(64, 4)), 5, 4, true, true, "stride x4, one byte less"},
	} {
		packed, dod := trace.AddrColumnLens(tc.vals)
		if packed != tc.packed || dod != tc.dod || trace.StrideLed(tc.vals) != tc.led {
			t.Fatalf("%s: packed %d, delta-of-delta %d, stride-led %v; the case needs %d, %d, %v",
				tc.name, packed, dod, trace.StrideLed(tc.vals), tc.packed, tc.dod, tc.led)
		}
		if got, _ := checkAddrColumn(t, addrColumn{tc.name, tc.vals}); got != tc.wantDoD {
			t.Fatalf("%s: delta-of-delta %v, want %v", tc.name, got, tc.wantDoD)
		}
	}

	head := irregularDeltas(stats.NewRNG(5), trace.PackBlock)
	var tie, less bool
	for m := 0; m <= 600; m++ {
		vals := fromDeltas(append(append([]mem.Addr(nil), head...), strideDeltas(64, m)...))
		if trace.StrideLed(vals[:trace.PackBlock]) {
			t.Fatal("irregular first block judged stride-led")
		}
		packed, dod := trace.AddrColumnLens(vals)
		tie = tie || dod == packed
		less = less || dod == packed-1
		checkAddrColumn(t, addrColumn{fmt.Sprintf("irregular head + stride x%d", m), vals})
	}
	if !tie || !less {
		t.Fatalf("no tail length gives a tie (%v) or a one-byte delta-of-delta win (%v)", tie, less)
	}
}

// TestAddrColumnFirstBlockMisjudged: the first-block check only picks
// the order of work. A stride-led first block followed by irregular
// values is sized exactly and written packed; an irregular first block
// followed by a long constant stride is packed first and then
// overwritten with the shorter delta-of-delta encoding.
func TestAddrColumnFirstBlockMisjudged(t *testing.T) {
	rng := stats.NewRNG(7)
	strideHead := fromDeltas(append(strideDeltas(64, trace.PackBlock), irregularDeltas(rng, 8000)...))
	irregularHead := fromDeltas(append(irregularDeltas(rng, trace.PackBlock), strideDeltas(64, 8000)...))
	for _, tc := range []struct {
		c            addrColumn
		led, wantDoD bool
	}{
		{addrColumn{"stride-led head, irregular tail", strideHead}, true, false},
		{addrColumn{"irregular head, strided tail", irregularHead}, false, true},
	} {
		if led := trace.StrideLed(tc.c.vals[:trace.PackBlock]); led != tc.led {
			t.Fatalf("%s: stride-led %v, the case needs %v", tc.c.name, led, tc.led)
		}
		if got, _ := checkAddrColumn(t, tc.c); got != tc.wantDoD {
			t.Fatalf("%s: delta-of-delta %v, want %v", tc.c.name, got, tc.wantDoD)
		}
	}
}
