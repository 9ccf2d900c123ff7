// Package trace defines the memory-access-stream abstraction that every
// profiler in this repository consumes, together with a library of
// synthetic stream generators and a compact binary record/replay format.
//
// A trace is read in batches through the Reader interface, mirroring
// io.Reader: generators produce accesses on the fly (no trace needs to be
// materialized to run a simulation), while recorded traces can be saved
// to disk and replayed bit-exactly.
package trace

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/mem"
)

// Reader is a stream of memory accesses. Read fills dst with up to
// len(dst) accesses and returns how many were written. It returns io.EOF
// (possibly alongside a final short batch) when the stream is exhausted.
type Reader interface {
	Read(dst []mem.Access) (int, error)
}

// DefaultBatchSize is the default batch used by helpers that drain a
// Reader and by the simulated core's batched execution engine. Large
// enough to amortize Read dispatch, small enough to stay cache-resident
// (4096 accesses × 16 bytes = 64 KiB).
const DefaultBatchSize = 4096

// batchSize is the default batch used by helpers that drain a Reader.
const batchSize = DefaultBatchSize

// ErrShortTrace is returned by readers that require a minimum length.
var ErrShortTrace = errors.New("trace: stream shorter than required")

// batchBufPool recycles DefaultBatchSize access buffers across the
// drain helpers and the execution engine. The pool stores fixed-size
// array pointers, so neither Get nor Put boxes a slice header — both
// directions are allocation-free.
var batchBufPool = sync.Pool{
	New: func() any { return new([DefaultBatchSize]mem.Access) },
}

// BatchBuf borrows a DefaultBatchSize access buffer from the package
// pool; return it with ReleaseBatchBuf once nothing references its
// contents. Profilers and drain helpers read streams through these so
// repeated runs reuse one 64 KiB buffer instead of allocating each.
func BatchBuf() []mem.Access {
	return batchBufPool.Get().(*[DefaultBatchSize]mem.Access)[:]
}

// ReleaseBatchBuf returns a BatchBuf buffer to the pool. Buffers of any
// other capacity are ignored, so callers may pass their own slices
// through code that releases unconditionally.
func ReleaseBatchBuf(buf []mem.Access) {
	if cap(buf) != DefaultBatchSize {
		return
	}
	batchBufPool.Put((*[DefaultBatchSize]mem.Access)(buf[:DefaultBatchSize]))
}

// batchLender is a Reader that can lend its next batch as a view of
// its own storage instead of copying it into a caller's buffer. lend
// returns up to max accesses with Read's io.EOF semantics; the caller
// must not modify the view.
type batchLender interface {
	lend(max int) ([]mem.Access, error)
}

// EachBatch drains r in order, handing each batch of at most
// DefaultBatchSize accesses to fn, and returns nil at the end of the
// stream. It checks ctx before every read and returns ctx.Err() once
// ctx is done; a read error is returned after fn has seen the accesses
// read alongside it. Batches fall at the same positions as reads into a
// BatchBuf would. Readers that can lend their storage (FromSlice) hand
// fn views of it, copying nothing; any other reader is read into a
// pooled BatchBuf.
//
// fn borrows each batch only until it returns: it must neither modify
// the batch nor keep it, or any sub-slice of it, after returning.
func EachBatch(ctx context.Context, r Reader, fn func(batch []mem.Access)) error {
	l, lends := r.(batchLender)
	var buf []mem.Access
	if !lends {
		buf = BatchBuf()
	}
	defer ReleaseBatchBuf(buf)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var batch []mem.Access
		var err error
		if lends {
			batch, err = l.lend(DefaultBatchSize)
		} else {
			var n int
			n, err = r.Read(buf)
			batch = buf[:n]
		}
		if len(batch) > 0 {
			fn(batch)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ForEach drains r, invoking fn for every access in order. It stops early
// and returns nil if fn returns false, and propagates any non-EOF error.
func ForEach(r Reader, fn func(mem.Access) bool) error {
	buf := BatchBuf()
	defer ReleaseBatchBuf(buf)
	for {
		n, err := r.Read(buf)
		for i := 0; i < n; i++ {
			if !fn(buf[i]) {
				return nil
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Count drains r and returns the total number of accesses.
func Count(r Reader) (uint64, error) {
	var n uint64
	err := ForEach(r, func(mem.Access) bool { n++; return true })
	return n, err
}

// Collect drains r into a slice. Intended for tests and small traces.
func Collect(r Reader) ([]mem.Access, error) {
	var out []mem.Access
	err := ForEach(r, func(a mem.Access) bool { out = append(out, a); return true })
	return out, err
}

// FromSlice returns a Reader over a fixed slice of accesses. EachBatch
// reads it without copying: its batches are views of accs.
func FromSlice(accs []mem.Access) Reader {
	return &sliceReader{accs: accs}
}

type sliceReader struct {
	accs []mem.Access
	pos  int
}

func (s *sliceReader) Read(dst []mem.Access) (int, error) {
	v, err := s.lend(len(dst))
	return copy(dst, v), err
}

// lend returns the next up to max accesses as a view of the slice,
// capacity-clipped so appending to it cannot write into the accesses
// after it.
func (s *sliceReader) lend(max int) ([]mem.Access, error) {
	if s.pos >= len(s.accs) {
		return nil, io.EOF
	}
	end := min(s.pos+max, len(s.accs))
	v := s.accs[s.pos:end:end]
	s.pos = end
	if end == len(s.accs) {
		return v, io.EOF
	}
	return v, nil
}

// Concat returns a Reader that plays each input reader to exhaustion in
// order.
func Concat(rs ...Reader) Reader {
	return &concatReader{rs: rs}
}

type concatReader struct {
	rs []Reader
}

func (c *concatReader) Read(dst []mem.Access) (int, error) {
	for len(c.rs) > 0 {
		n, err := c.rs[0].Read(dst)
		if err == io.EOF {
			c.rs = c.rs[1:]
			if n > 0 {
				if len(c.rs) == 0 {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

// Limit returns a Reader that yields at most n accesses from r.
func Limit(r Reader, n uint64) Reader {
	return &limitReader{r: r, left: n}
}

type limitReader struct {
	r    Reader
	left uint64
}

func (l *limitReader) Read(dst []mem.Access) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n, err := l.r.Read(dst)
	l.left -= uint64(n)
	if l.left == 0 {
		err = io.EOF
	}
	return n, err
}

// Repeat returns a Reader that replays the generator produced by mk
// `times` times in sequence. mk must return a fresh Reader on each call
// (generators are single-use).
func Repeat(times int, mk func() Reader) Reader {
	return &repeatReader{mk: mk, left: times}
}

type repeatReader struct {
	mk   func() Reader
	cur  Reader
	left int
}

func (r *repeatReader) Read(dst []mem.Access) (int, error) {
	for {
		if r.cur == nil {
			if r.left == 0 {
				return 0, io.EOF
			}
			r.left--
			r.cur = r.mk()
		}
		n, err := r.cur.Read(dst)
		if err == io.EOF {
			r.cur = nil
			if n > 0 {
				if r.left == 0 {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		return n, err
	}
}

// Func adapts a per-access generator function to a Reader. gen must
// return the next access and true, or false when the stream ends.
func Func(gen func() (mem.Access, bool)) Reader {
	return &funcReader{gen: gen}
}

type funcReader struct {
	gen  func() (mem.Access, bool)
	done bool
}

func (f *funcReader) Read(dst []mem.Access) (int, error) {
	if f.done {
		return 0, io.EOF
	}
	for i := range dst {
		a, ok := f.gen()
		if !ok {
			f.done = true
			return i, io.EOF
		}
		dst[i] = a
	}
	return len(dst), nil
}
