package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Binary trace format ("RDT3"):
//
//	magic   [4]byte  "RDT3"
//	records *        one per access:
//	    header byte: bit0 = kind (0 load, 1 store), bits1-4 = size,
//	                 bits5-7 zero (a reader refuses a header with any
//	                 of them set)
//	    varint       address delta against previous access's address
//	    varint       PC delta against previous access's PC
//	trailer
//	    0xFF         end-of-stream sentinel (invalid as a record header:
//	                 no access has size 15 with bits 5-7 set)
//	    uvarint      total record count, cross-checked on replay
//
// Delta+varint encoding keeps locality-heavy traces compact (sequential
// single-site streams cost ~3 bytes/access). The trailer makes the
// stream self-delimiting: a replayer can tell a complete trace from one
// truncated at any byte offset — including exactly at a record boundary,
// which the RDT2 predecessor silently accepted as a short trace.

var fileMagic = [4]byte{'R', 'D', 'T', '3'}

// endSentinel marks the end of the record stream. It can never begin a
// record: the writer refuses sizes above 15, so a header byte never has
// bits 5-7 set.
const endSentinel = 0xFF

// ErrTruncated is wrapped by replay errors caused by a trace that ends
// before its end-of-stream trailer (a partial download, a crashed
// recorder, a cut-off frame).
var ErrTruncated = fmt.Errorf("trace: truncated stream")

// Writer encodes accesses to an underlying io.Writer. Call Close (or
// Flush, for a partial stream) before closing the destination.
type Writer struct {
	w      *bufio.Writer
	prev   mem.Addr
	prevPC mem.Addr
	n      uint64
	closed bool
	// scratch is the varint encode buffer. As a field it stays off the
	// per-Write allocation path; as a local it escapes through the
	// bufio.Writer interface call and costs one heap allocation per
	// access (measured: the dominant allocation of the whole wire
	// encode path).
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter writes the file header and returns a trace Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	if _, err := tw.w.Write(fileMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

// Write appends one access to the trace. An access wider than
// MaxMetaSize bytes or of a kind other than Load or Store is refused
// with an error wrapping ErrUnfitAccess, and nothing is written.
func (w *Writer) Write(a mem.Access) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	hdr := PackMeta(a)
	if hdr == metaUnfit {
		return fmt.Errorf("trace: access %d (%v): %w", w.n, a, ErrUnfitAccess)
	}
	if err := w.w.WriteByte(hdr); err != nil {
		return err
	}
	n := binary.PutVarint(w.scratch[:], int64(a.Addr)-int64(w.prev))
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		return err
	}
	n = binary.PutVarint(w.scratch[:], int64(a.PC)-int64(w.prevPC))
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		return err
	}
	w.prev = a.Addr
	w.prevPC = a.PC
	w.n++
	return nil
}

// Count returns the number of accesses written so far.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered output to the destination without writing the
// end-of-stream trailer. A stream that is never Closed replays with
// ErrTruncated.
func (w *Writer) Flush() error { return w.w.Flush() }

// Close writes the end-of-stream trailer (sentinel + record count) and
// flushes. The Writer accepts no further accesses.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.WriteByte(endSentinel); err != nil {
		return err
	}
	n := binary.PutUvarint(w.scratch[:], w.n)
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Record drains r, writing every access (and the closing trailer) to w,
// and returns the count.
func Record(w io.Writer, r Reader) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	err = ForEach(r, func(a mem.Access) bool {
		if werr := tw.Write(a); werr != nil {
			err = werr
			return false
		}
		return true
	})
	if err != nil {
		return tw.Count(), err
	}
	return tw.Count(), tw.Close()
}

// fileReader decodes the binary format and implements Reader.
type fileReader struct {
	r      *bufio.Reader
	prev   mem.Addr
	prevPC mem.Addr
	n      uint64 // records decoded so far
	done   bool   // trailer consumed and verified
}

// NewReader validates the header of a recorded trace and returns a Reader
// that replays it. Replay fails with a descriptive error — never a silent
// short read — when the stream is truncated (at any byte offset,
// ErrTruncated) or corrupt (bad record, count mismatch, trailing data).
func NewReader(r io.Reader) (Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: reading header: %w", ErrTruncated)
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q, want %q", magic, fileMagic)
	}
	return &fileReader{r: br}, nil
}

func (f *fileReader) Read(dst []mem.Access) (int, error) {
	if f.done {
		return 0, io.EOF
	}
	for i := range dst {
		hdr, err := f.r.ReadByte()
		if err == io.EOF {
			return i, fmt.Errorf("trace: stream ends after %d records with no end-of-stream trailer: %w", f.n, ErrTruncated)
		}
		if err != nil {
			return i, err
		}
		if hdr == endSentinel {
			if err := f.finishTrailer(); err != nil {
				return i, err
			}
			return i, io.EOF
		}
		if hdr&metaSpare != 0 {
			return i, fmt.Errorf("trace: record %d header %#x is not a packed access (corrupt stream)", f.n, hdr)
		}
		delta, err := binary.ReadVarint(f.r)
		if err != nil {
			return i, f.recordErr(err)
		}
		pcDelta, err := binary.ReadVarint(f.r)
		if err != nil {
			return i, f.recordErr(err)
		}
		addr := mem.Addr(int64(f.prev) + delta)
		pc := mem.Addr(int64(f.prevPC) + pcDelta)
		f.prev = addr
		f.prevPC = pc
		dst[i] = mem.Access{
			Addr: addr,
			PC:   pc,
			Size: MetaSize(hdr),
			Kind: MetaKind(hdr),
		}
		f.n++
	}
	return len(dst), nil
}

// recordErr describes a decode failure inside record f.n. Mid-record EOF
// is truncation; anything else is corruption.
func (f *fileReader) recordErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: record %d cut off mid-stream: %w", f.n, ErrTruncated)
	}
	return fmt.Errorf("trace: corrupt record %d: %w", f.n, err)
}

// finishTrailer consumes and verifies the end-of-stream trailer after its
// sentinel byte has been read.
func (f *fileReader) finishTrailer() error {
	want, err := binary.ReadUvarint(f.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: stream ends inside the end-of-stream trailer: %w", ErrTruncated)
		}
		return fmt.Errorf("trace: reading end-of-stream trailer: %w", err)
	}
	if want != f.n {
		return fmt.Errorf("trace: corrupt stream: trailer records %d accesses, decoded %d", want, f.n)
	}
	if _, err := f.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: %d trailing bytes after end-of-stream trailer", 1+f.r.Buffered())
	}
	f.done = true
	return nil
}
