package trace

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// opaque hides every method but Read, so EachBatch cannot lend from it.
type opaque struct{ Reader }

// numbered returns n distinct accesses.
func numbered(n int) []mem.Access {
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(i) * 8, PC: mem.Addr(i), Size: 8, Kind: mem.Kind(i & 1)}
	}
	return accs
}

// eachBatchCopies drains r through EachBatch, copying every batch.
func eachBatchCopies(t *testing.T, r Reader) [][]mem.Access {
	t.Helper()
	var out [][]mem.Access
	if err := EachBatch(context.Background(), r, func(b []mem.Access) {
		out = append(out, append([]mem.Access(nil), b...))
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEachBatchFromSliceMatchesRead: EachBatch over FromSlice lends the
// batches a BatchBuf read loop would see, in the same positions, and so
// does EachBatch over a reader it must copy from.
func TestEachBatchFromSliceMatchesRead(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1, 3*DefaultBatchSize + 5} {
		accs := numbered(n)
		var want [][]mem.Access
		r := FromSlice(accs)
		buf := make([]mem.Access, DefaultBatchSize)
		for {
			k, err := r.Read(buf)
			if k > 0 {
				want = append(want, append([]mem.Access(nil), buf[:k]...))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := eachBatchCopies(t, FromSlice(accs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: lent batches differ from Read batches (%d vs %d batches)", n, len(got), len(want))
		}
		if got := eachBatchCopies(t, opaque{FromSlice(accs)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: copied batches differ from Read batches (%d vs %d batches)", n, len(got), len(want))
		}
	}
}

// TestEachBatchViewsAliasSource: FromSlice's batches are the source
// slice itself, not copies, and appending to one cannot overwrite the
// access after it.
func TestEachBatchViewsAliasSource(t *testing.T) {
	accs := numbered(2*DefaultBatchSize + 3)
	orig := append([]mem.Access(nil), accs...)
	off := 0
	err := EachBatch(context.Background(), FromSlice(accs), func(b []mem.Access) {
		if &b[0] != &accs[off] {
			t.Fatalf("batch at %d is not a view of the source", off)
		}
		if cap(b) != len(b) {
			t.Fatalf("batch at %d has cap %d beyond its len %d", off, cap(b), len(b))
		}
		_ = append(b, mem.Access{Addr: 0xdead})
		off += len(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if off != len(accs) {
		t.Fatalf("batches covered %d of %d accesses", off, len(accs))
	}
	if !reflect.DeepEqual(accs, orig) {
		t.Fatal("appending to a view changed the source")
	}
}

// TestSliceLendEOF: lend reports io.EOF exactly where Read does — with
// the final batch, and alone on every call after it, including on an
// empty slice.
func TestSliceLendEOF(t *testing.T) {
	for _, n := range []int{0, 1, 5, 8} {
		lender := FromSlice(numbered(n)).(*sliceReader)
		reader := FromSlice(numbered(n))
		buf := make([]mem.Access, 4)
		for step := 0; step < 5; step++ {
			v, lerr := lender.lend(len(buf))
			k, rerr := reader.Read(buf)
			if len(v) != k || lerr != rerr {
				t.Fatalf("n=%d step %d: lend = (%d, %v), Read = (%d, %v)", n, step, len(v), lerr, k, rerr)
			}
			for i := range v {
				if v[i] != buf[i] {
					t.Fatalf("n=%d step %d: lend and Read differ at %d", n, step, i)
				}
			}
		}
	}
}

// TestEachBatchContext: a cancelled context stops EachBatch before its
// next read, and a read error is returned after the batch read with it.
func TestEachBatchContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	accs := numbered(3 * DefaultBatchSize)
	batches := 0
	err := EachBatch(ctx, FromSlice(accs), func([]mem.Access) {
		batches++
		cancel()
	})
	if !errors.Is(err, context.Canceled) || batches != 1 {
		t.Fatalf("cancelled after the first batch: err=%v, batches=%d", err, batches)
	}

	boom := errors.New("boom")
	seen := 0
	err = EachBatch(context.Background(), failing{n: 7, err: boom}, func(b []mem.Access) { seen += len(b) })
	if !errors.Is(err, boom) || seen != 7 {
		t.Fatalf("read error: err=%v, accesses seen=%d, want boom after 7", err, seen)
	}
}

// failing returns n accesses together with err from its first Read.
type failing struct {
	n   int
	err error
}

func (f failing) Read(dst []mem.Access) (int, error) { return f.n, f.err }
