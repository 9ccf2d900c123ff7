package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/mem"
	"repro/internal/trace"
)

// WireV4 is the one wire protocol version: columnar batches
// (FrameBatchV3) with bit-packed address columns. A client sends it in
// OpenRequest.Wire and the server echoes it in OpenReply.Wire; either
// side rejects any other version.
const WireV4 = 4

// Column encoding tags carried in a column section header. Address and
// PC columns are bit-packed or zero-run delta-of-delta; the meta column
// is raw or run-length. The encoder writes the smaller candidate of each
// pair, so irregular streams never regress past plain packing.
const (
	colEncDoD    = 0x01 // zero-run delta-of-delta
	colEncPacked = 0x02 // frame-of-reference bit-packed zig-zag deltas
	colEncRaw    = 0x00 // meta bytes verbatim
	colEncRLE    = 0x01 // (value, run-length uvarint) pairs
)

// colSectionHdr is a column section's fixed prefix: encoding tag byte,
// 4-byte big-endian data length, 4-byte big-endian crc32 (IEEE, over
// tag + data).
const colSectionHdr = 9

// batchSeqBytes is the sequence-number prefix of a batch payload.
const batchSeqBytes = 8

// columnsHdrBytes is the batch payload's fixed prefix: 8-byte sequence
// number + 4-byte access count, both big-endian.
const columnsHdrBytes = batchSeqBytes + 4

// MaxColumnBatch bounds the access count a batch payload may declare. The
// zero-run encodings let a few bytes describe millions of values, so
// the count must be bounded independently of the payload size to stop
// a corrupt or hostile header from ballooning column scratch.
const MaxColumnBatch = 1 << 22

// colCRC is the checksum carried in a column section header: IEEE crc32
// over the tag byte followed by the column data (reusing the frame
// layer's precomputed one-byte prefix states).
func colCRC(tag byte, data []byte) uint32 {
	return crc32.Update(typeCRCs[tag], crc32.IEEETable, data)
}

// EncodeColumns resets dst and appends a columnar batch payload: the sequence
// number and access count, then the address, PC and meta column
// sections. Each section carries its own encoding tag, length and
// crc32, so a decoder localizes corruption to a column. Address and PC
// sections hold the smaller of their packed and delta-of-delta
// encodings (trace.PutAddrColumn); the meta section holds the smaller of
// raw and RLE. A batch holding an access the meta byte cannot carry
// (trace.PackMeta marks it, trace.FirstInvalidMeta finds it) is refused
// with an error wrapping trace.ErrUnfitAccess.
// Steady-state encoding into a reused dst allocates nothing.
func EncodeColumns(dst []byte, seq uint64, cols *trace.Columns) ([]byte, error) {
	if cols.Len() > MaxColumnBatch {
		return dst, fmt.Errorf("wire: columnar batch of %d accesses exceeds limit %d", cols.Len(), MaxColumnBatch)
	}
	if i := trace.FirstInvalidMeta(cols.Meta); i >= 0 {
		return dst, fmt.Errorf("wire: batch %d access %d at %#x: %w", seq, i, uint64(cols.Addrs[i]), trace.ErrUnfitAccess)
	}
	if worst := encodeReserve(cols.Len()); cap(dst) < worst {
		dst = make([]byte, 0, worst)
	}
	dst = dst[:columnsHdrBytes]
	binary.BigEndian.PutUint64(dst, seq)
	binary.BigEndian.PutUint32(dst[batchSeqBytes:], uint32(cols.Len()))
	dst = appendAddrSection(dst, cols.Addrs)
	dst = appendAddrSection(dst, cols.PCs)
	dst = appendMetaSection(dst, cols.Meta)
	return dst, nil
}

// encodeReserve is the worst-case encoded size of an n-access batch,
// which EncodeColumns reserves up front so a cold buffer pays one
// allocation: the header and three section headers, at most 8 bytes per
// address and PC value plus a width byte per block (a delta-of-delta
// column is written only when it is smaller than the packed one), at
// most one byte per meta value (RLE likewise), and the column encoders'
// store slack.
func encodeReserve(n int) int {
	return columnsHdrBytes + 3*colSectionHdr + 2*trace.PackedColumnMax(n) + n + trace.ColumnSlack
}

// appendAddrSection appends one address-valued column section in the
// smaller of its packed and delta-of-delta encodings (delta-of-delta
// only when strictly smaller).
func appendAddrSection(dst []byte, vals []mem.Addr) []byte {
	off := len(dst)
	body := off + colSectionHdr
	dst = slices.Grow(dst, colSectionHdr+trace.PackedColumnMax(len(vals))+trace.ColumnSlack)
	n, dod := trace.PutAddrColumn(dst[body:cap(dst)], vals)
	tag := byte(colEncPacked)
	if dod {
		tag = colEncDoD
	}
	return finishSection(dst[:body+n], off, tag)
}

// appendMetaSection appends the meta column section, run-length encoded
// unless the raw bytes are no larger.
func appendMetaSection(dst []byte, meta []byte) []byte {
	off := len(dst)
	body := off + colSectionHdr
	n := trace.RLEColumnLen(meta)
	if n >= len(meta) {
		dst = append(slices.Grow(dst, colSectionHdr+len(meta))[:body], meta...)
		return finishSection(dst, off, colEncRaw)
	}
	dst = slices.Grow(dst, colSectionHdr+n+trace.ColumnSlack)
	trace.PutRLEColumn(dst[body:body+n+trace.ColumnSlack], meta)
	return finishSection(dst[:body+n], off, colEncRLE)
}

// finishSection backfills the section header reserved at off: tag,
// data length, crc over tag + data.
func finishSection(dst []byte, off int, tag byte) []byte {
	data := dst[off+colSectionHdr:]
	dst[off] = tag
	binary.BigEndian.PutUint32(dst[off+1:], uint32(len(data)))
	binary.BigEndian.PutUint32(dst[off+5:], colCRC(tag, data))
	return dst
}

// DecodeColumnsInto decodes a columnar batch payload, appending the accesses
// to cols (callers reuse one Columns value, Reset between batches) and
// returning the batch's sequence number. Each column's crc32 is
// verified before its data is interpreted, and every structural
// violation — truncated sections, unknown encoding tags, columns that
// decode to the wrong count, trailing bytes — is a descriptive error.
// Decoding into columns that have grown to the session's steady batch
// size allocates nothing.
func DecodeColumnsInto(cols *trace.Columns, payload []byte) (uint64, error) {
	if len(payload) < columnsHdrBytes {
		return 0, fmt.Errorf("wire: columnar payload of %d bytes lacks its %d-byte header", len(payload), columnsHdrBytes)
	}
	seq := binary.BigEndian.Uint64(payload)
	count := binary.BigEndian.Uint32(payload[batchSeqBytes:])
	if count > MaxColumnBatch {
		return seq, fmt.Errorf("wire: columnar batch declares %d accesses, limit %d", count, MaxColumnBatch)
	}
	// Build the whole batch's scratch up front: the count is declared, so
	// cold columns pay one allocation each instead of append-doubling.
	// The MaxColumnBatch bound above keeps a hostile count from turning
	// this into a huge speculative allocation.
	cols.Grow(int(count))
	rest := payload[columnsHdrBytes:]
	var err error
	if cols.Addrs, rest, err = decodeAddrSection(cols.Addrs, rest, int(count), "address"); err != nil {
		return seq, err
	}
	if cols.PCs, rest, err = decodeAddrSection(cols.PCs, rest, int(count), "pc"); err != nil {
		return seq, err
	}
	if cols.Meta, rest, err = decodeMetaSection(cols.Meta, rest, int(count)); err != nil {
		return seq, err
	}
	if len(rest) > 0 {
		return seq, fmt.Errorf("wire: %d trailing bytes after columnar batch", len(rest))
	}
	return seq, nil
}

// splitSection parses one column section header off data, verifies the
// crc, and returns the tag, the column bytes and the remainder.
func splitSection(data []byte, name string) (byte, []byte, []byte, error) {
	if len(data) < colSectionHdr {
		return 0, nil, nil, fmt.Errorf("wire: %s column cut off inside its section header", name)
	}
	tag := data[0]
	n := binary.BigEndian.Uint32(data[1:])
	want := binary.BigEndian.Uint32(data[5:])
	if uint64(n) > uint64(len(data)-colSectionHdr) {
		return 0, nil, nil, fmt.Errorf("wire: %s column of %d bytes overruns its frame", name, n)
	}
	col := data[colSectionHdr : colSectionHdr+int(n)]
	if got := colCRC(tag, col); got != want {
		return 0, nil, nil, fmt.Errorf("wire: %s column checksum mismatch (corrupt stream)", name)
	}
	return tag, col, data[colSectionHdr+int(n):], nil
}

func decodeAddrSection(dst []mem.Addr, data []byte, count int, name string) ([]mem.Addr, []byte, error) {
	tag, col, rest, err := splitSection(data, name)
	if err != nil {
		return dst, data, err
	}
	switch tag {
	case colEncPacked:
		dst, err = trace.DecodePackedColumn(dst, col, count)
	case colEncDoD:
		dst, err = trace.DecodeDoDColumn(dst, col, count)
	default:
		return dst, data, fmt.Errorf("wire: %s column has unknown encoding %#x", name, tag)
	}
	if err != nil {
		return dst, data, fmt.Errorf("wire: %s column: %w", name, err)
	}
	return dst, rest, nil
}

func decodeMetaSection(dst []byte, data []byte, count int) ([]byte, []byte, error) {
	tag, col, rest, err := splitSection(data, "meta")
	if err != nil {
		return dst, data, err
	}
	switch tag {
	case colEncRaw:
		if len(col) != count {
			return dst, data, fmt.Errorf("wire: raw meta column of %d bytes, want %d", len(col), count)
		}
		dst = append(dst, col...)
	case colEncRLE:
		dst, err = trace.DecodeRLEColumn(dst, col, count)
		if err != nil {
			return dst, data, fmt.Errorf("wire: meta column: %w", err)
		}
	default:
		return dst, data, fmt.Errorf("wire: meta column has unknown encoding %#x", tag)
	}
	// A byte no encoder writes would decode to an access no encoder
	// was given.
	if i := trace.FirstInvalidMeta(dst[len(dst)-count:]); i >= 0 {
		return dst, data, fmt.Errorf("wire: meta byte %#x of access %d is not a packed access", dst[len(dst)-count+i], i)
	}
	return dst, rest, nil
}
