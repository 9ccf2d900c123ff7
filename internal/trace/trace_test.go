package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestFromSliceRoundTrip(t *testing.T) {
	in := []mem.Access{
		{Addr: 1, Size: 8, Kind: mem.Load},
		{Addr: 2, Size: 4, Kind: mem.Store},
		{Addr: 3, Size: 1, Kind: mem.Load},
	}
	out, err := Collect(FromSlice(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d accesses, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("access %d: got %v, want %v", i, out[i], in[i])
		}
	}
}

func TestFromSliceSmallBatches(t *testing.T) {
	in := make([]mem.Access, 10)
	for i := range in {
		in[i] = mem.Access{Addr: mem.Addr(i), Size: 8}
	}
	r := FromSlice(in)
	buf := make([]mem.Access, 3)
	var got []mem.Access
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d accesses, want 10", len(got))
	}
}

func TestCount(t *testing.T) {
	n, err := Count(Sequential(0, 12345, 8))
	if err != nil || n != 12345 {
		t.Fatalf("Count = %d, %v; want 12345", n, err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	seen := 0
	err := ForEach(Sequential(0, 1000, 8), func(mem.Access) bool {
		seen++
		return seen < 10
	})
	if err != nil || seen != 10 {
		t.Fatalf("early stop: seen=%d err=%v", seen, err)
	}
}

func TestConcat(t *testing.T) {
	r := Concat(Sequential(0, 5, 8), Sequential(1000, 5, 8))
	accs, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 10 {
		t.Fatalf("concat length = %d, want 10", len(accs))
	}
	if accs[5].Addr != 1000 {
		t.Errorf("second stream starts at %v, want 1000", accs[5].Addr)
	}
}

func TestLimit(t *testing.T) {
	n, err := Count(Limit(Sequential(0, 1000, 8), 17))
	if err != nil || n != 17 {
		t.Fatalf("Limit: n=%d err=%v", n, err)
	}
	// Limit longer than the stream.
	n, err = Count(Limit(Sequential(0, 5, 8), 100))
	if err != nil || n != 5 {
		t.Fatalf("Limit over-long: n=%d err=%v", n, err)
	}
}

func TestRepeat(t *testing.T) {
	r := Repeat(3, func() Reader { return Sequential(0, 4, 8) })
	accs, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 12 {
		t.Fatalf("repeat length = %d, want 12", len(accs))
	}
	if accs[4].Addr != 0 {
		t.Errorf("second lap should restart at 0, got %v", accs[4].Addr)
	}
}

func TestSequentialAddresses(t *testing.T) {
	accs, _ := Collect(Sequential(100, 4, 16))
	want := []mem.Addr{100, 116, 132, 148}
	for i, a := range accs {
		if a.Addr != want[i] {
			t.Errorf("access %d addr = %v, want %v", i, a.Addr, want[i])
		}
	}
}

func TestCyclicPattern(t *testing.T) {
	accs, _ := Collect(Cyclic(0, 3, 7))
	wantAddrs := []mem.Addr{0, 8, 16, 0, 8, 16, 0}
	for i, a := range accs {
		if a.Addr != wantAddrs[i] {
			t.Errorf("access %d addr = %v, want %v", i, a.Addr, wantAddrs[i])
		}
	}
}

func TestRandomUniformStaysInRegion(t *testing.T) {
	err := ForEach(RandomUniform(1, 1<<20, 64, 10000), func(a mem.Access) bool {
		if a.Addr < 1<<20 || a.Addr >= 1<<20+64*8 {
			t.Fatalf("address %v out of region", a.Addr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPointerChaseVisitsAllNodes(t *testing.T) {
	const nodes = 64
	accs, _ := Collect(PointerChase(3, 0, nodes, nodes))
	seen := make(map[mem.Addr]bool)
	for _, a := range accs {
		seen[a.Addr] = true
	}
	if len(seen) != nodes {
		t.Errorf("pointer chase visited %d distinct nodes in one lap, want %d (single cycle)", len(seen), nodes)
	}
}

func TestPointerChaseIsCyclic(t *testing.T) {
	const nodes = 16
	accs, _ := Collect(PointerChase(5, 0, nodes, nodes*3))
	for i := nodes; i < len(accs); i++ {
		if accs[i] != accs[i-nodes] {
			t.Fatalf("chase not periodic at %d", i)
		}
	}
}

func TestZipfAccessSkew(t *testing.T) {
	counts := make(map[mem.Addr]int)
	err := ForEach(ZipfAccess(1, 0, 1024, 1.2, 50000), func(a mem.Access) bool {
		counts[a.Addr]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50000/100 {
		t.Errorf("Zipf max block count %d too flat", max)
	}
}

func TestStencil2DBounds(t *testing.T) {
	const nx, ny = 16, 8
	base := mem.Addr(1 << 30)
	n := 0
	err := ForEach(Stencil2D(base, nx, ny, 2), func(a mem.Access) bool {
		n++
		if a.Addr < base || a.Addr >= base+mem.Addr(nx*ny*8) {
			t.Fatalf("stencil access %v out of grid", a.Addr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPerSweep := (nx - 2) * (ny - 2) * 6
	if n != 2*wantPerSweep {
		t.Errorf("stencil access count = %d, want %d", n, 2*wantPerSweep)
	}
}

func TestMatMulBlockedCount(t *testing.T) {
	const n = 8
	accs, err := Collect(MatMulBlocked(0, n, 4))
	if err != nil {
		t.Fatal(err)
	}
	// 4 accesses (A, B, C load, C store) per innermost iteration, n^3 of them.
	if len(accs) != 4*n*n*n {
		t.Errorf("matmul access count = %d, want %d", len(accs), 4*n*n*n)
	}
}

func TestMatMulBlockDegenerate(t *testing.T) {
	// bs <= 0 or > n should degenerate to the full matrix.
	a1, _ := Collect(MatMulBlocked(0, 4, 0))
	a2, _ := Collect(MatMulBlocked(0, 4, 4))
	if len(a1) != len(a2) {
		t.Errorf("degenerate block sizes disagree: %d vs %d", len(a1), len(a2))
	}
}

func TestMixProportions(t *testing.T) {
	r := Mix(9,
		[]Reader{Sequential(0, 100000, 8), Sequential(1<<40, 100000, 8)},
		[]float64{3, 1})
	var lo, hi int
	err := ForEach(Limit(r, 40000), func(a mem.Access) bool {
		if a.Addr < 1<<40 {
			lo++
		} else {
			hi++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(lo) / float64(lo+hi)
	if ratio < 0.70 || ratio > 0.80 {
		t.Errorf("mix ratio = %v, want ~0.75", ratio)
	}
}

func TestMixDrainsAllSources(t *testing.T) {
	r := Mix(2,
		[]Reader{Sequential(0, 100, 8), Sequential(1<<40, 5000, 8)},
		[]float64{1, 1})
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5100 {
		t.Errorf("mix drained %d accesses, want 5100", n)
	}
}

func TestGaussianWorkingSetInRegion(t *testing.T) {
	const blocks = 1024
	err := ForEach(GaussianWorkingSet(4, 0, blocks, 32, 100, 10000), func(a mem.Access) bool {
		if a.Addr >= blocks*8 {
			t.Fatalf("gaussian access %v out of region", a.Addr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []bool) bool {
		var in []mem.Access
		for i, a := range addrs {
			k := mem.Load
			if i < len(kinds) && kinds[i] {
				k = mem.Store
			}
			in = append(in, mem.Access{Addr: mem.Addr(a), PC: mem.Addr(a>>3) ^ 0x400000, Size: 8, Kind: k})
		}
		var buf bytes.Buffer
		n, err := Record(&buf, FromSlice(in))
		if err != nil || n != uint64(len(in)) {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out, err := Collect(r)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFileRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE...."))); err == nil {
		t.Error("NewReader accepted bad magic")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("NewReader accepted empty input")
	}
}

func TestFileTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, Sequential(1<<60, 10, 4096)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); err == nil {
		t.Error("truncated trace decoded without error")
	}
}

func TestFileCompactForSequential(t *testing.T) {
	var buf bytes.Buffer
	const n = 10000
	if _, err := Record(&buf, Sequential(0, n, 8)); err != nil {
		t.Fatal(err)
	}
	if perAccess := float64(buf.Len()) / n; perAccess > 4 {
		t.Errorf("sequential trace costs %.1f bytes/access, want <= 4", perAccess)
	}
}

func TestTagRebasesPCs(t *testing.T) {
	r := Tag(0x400000, Stencil2D(0, 8, 8, 1))
	err := ForEach(r, func(a mem.Access) bool {
		if a.PC < 0x400000 || a.PC > 0x400005 {
			t.Fatalf("tagged PC = %#x, want 0x400000..0x400005", uint64(a.PC))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Single-site generators get a constant PC.
	r = Tag(0x500000, Sequential(0, 10, 8))
	err = ForEach(r, func(a mem.Access) bool {
		if a.PC != 0x500000 {
			t.Fatalf("tagged PC = %#x, want 0x500000", uint64(a.PC))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulSitePCs(t *testing.T) {
	seen := map[mem.Addr]bool{}
	if err := ForEach(MatMulBlocked(0, 4, 2), func(a mem.Access) bool {
		seen[a.PC] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for pc := mem.Addr(0); pc < 4; pc++ {
		if !seen[pc] {
			t.Errorf("matmul site PC %d never emitted", pc)
		}
	}
}

// TestBatchBufRoundTrip: the pool hands out full-capacity buffers and
// ignores foreign slices on release.
func TestBatchBufRoundTrip(t *testing.T) {
	buf := BatchBuf()
	if len(buf) != DefaultBatchSize || cap(buf) != DefaultBatchSize {
		t.Fatalf("BatchBuf: len=%d cap=%d, want %d", len(buf), cap(buf), DefaultBatchSize)
	}
	ReleaseBatchBuf(buf)
	ReleaseBatchBuf(nil)                        // no-op
	ReleaseBatchBuf(make([]mem.Access, 7))      // foreign capacity: ignored
	ReleaseBatchBuf(buf[:100])                  // short view of a pooled buffer still returns it
	ReleaseBatchBuf(make([]mem.Access, 0, 100)) // foreign capacity: ignored
}

// TestFileRefusesUnfitAccess: an access wider than 15 bytes or of an
// unknown kind is refused with ErrUnfitAccess instead of being written
// with its size or kind masked, and the trace written so far replays
// intact. Every size up to 15 of either kind round-trips.
func TestFileRefusesUnfitAccess(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var in []mem.Access
	for size := uint8(0); size <= MaxMetaSize; size++ {
		for _, kind := range []mem.Kind{mem.Load, mem.Store} {
			a := mem.Access{Addr: mem.Addr(size) << 12, PC: 0x400000, Size: size, Kind: kind}
			if err := w.Write(a); err != nil {
				t.Fatalf("write %v: %v", a, err)
			}
			in = append(in, a)
		}
	}
	for _, a := range []mem.Access{
		{Addr: 0x1000, Size: 16},
		{Addr: 0x2000, Size: 255, Kind: mem.Store},
		{Addr: 0x3000, Size: 8, Kind: 2},
	} {
		if err := w.Write(a); !errors.Is(err, ErrUnfitAccess) {
			t.Fatalf("write %v: got %v, want ErrUnfitAccess", a, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, in) {
		t.Fatalf("replayed %d accesses, wrote %d: %v", len(out), len(in), out)
	}
}

// TestFileRejectsCorruptHeader: a record header with a bit set that the
// writer never sets (bits 5-7) is corruption, reported as an error
// instead of replayed as an access with those bits dropped.
func TestFileRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, Sequential(0x1000, 10, 8)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(fileMagic)] |= 0x40 // the first record's header
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Collect(r); err == nil || !strings.Contains(err.Error(), "record 0 header 0x") {
		t.Fatalf("replayed %d accesses with error %v, want the header refused", len(out), err)
	}
}
