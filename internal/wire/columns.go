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
	meta := cols.Meta()
	if i := trace.FirstInvalidMeta(meta); i >= 0 {
		return dst, fmt.Errorf("wire: batch %d access %d at %#x: %w", seq, i, uint64(cols.Addrs()[i]), trace.ErrUnfitAccess)
	}
	if worst := encodeReserve(cols.Len()); cap(dst) < worst {
		dst = make([]byte, 0, worst)
	}
	dst = dst[:columnsHdrBytes]
	binary.BigEndian.PutUint64(dst, seq)
	binary.BigEndian.PutUint32(dst[batchSeqBytes:], uint32(cols.Len()))
	dst = appendAddrSection(dst, cols.Addrs())
	dst = appendAddrSection(dst, cols.PCs())
	dst = appendMetaSection(dst, meta)
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

// DecodeColumnsInto checks a columnar batch payload and appends its
// accesses to cols (callers reuse one Columns value, Reset between
// batches), returning the batch's sequence number. Every column's crc32
// is verified before its data is interpreted, and its full structure is
// walked (trace.CheckColumn): truncated sections, unknown encoding
// tags, columns that decode to the wrong count, meta bytes no encoder
// writes and trailing bytes are descriptive errors, and a payload that
// passes cannot fail to unpack. The columns are copied into cols still
// packed, and each is unpacked the first time something reads it, so
// payload may be reused as soon as DecodeColumnsInto returns. Checking
// into columns that have grown to the session's steady batch size
// allocates nothing.
func DecodeColumnsInto(cols *trace.Columns, payload []byte) (uint64, error) {
	if len(payload) < columnsHdrBytes {
		return 0, fmt.Errorf("wire: columnar payload of %d bytes lacks its %d-byte header", len(payload), columnsHdrBytes)
	}
	seq := binary.BigEndian.Uint64(payload)
	count := binary.BigEndian.Uint32(payload[batchSeqBytes:])
	if count > MaxColumnBatch {
		return seq, fmt.Errorf("wire: columnar batch declares %d accesses, limit %d", count, MaxColumnBatch)
	}
	rest := payload[columnsHdrBytes:]
	addrs, rest, err := checkSection(rest, int(count), "address", addrEncs[:])
	if err != nil {
		return seq, err
	}
	pcs, rest, err := checkSection(rest, int(count), "pc", addrEncs[:])
	if err != nil {
		return seq, err
	}
	meta, rest, err := checkSection(rest, int(count), "meta", metaEncs[:])
	if err != nil {
		return seq, err
	}
	if len(rest) > 0 {
		return seq, fmt.Errorf("wire: %d trailing bytes after columnar batch", len(rest))
	}
	cols.AppendPacked(addrs, pcs, meta)
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

// Section encodings by tag: address and PC sections, then the meta
// section. A tag outside its table, or mapped to 0, is unknown.
var (
	addrEncs = [...]trace.ColumnEncoding{colEncDoD: trace.EncDoD, colEncPacked: trace.EncPacked}
	metaEncs = [...]trace.ColumnEncoding{colEncRaw: trace.EncRaw, colEncRLE: trace.EncRLE}
)

// checkSection splits the named column's section off data, verifies its
// crc and walks its structure (trace.CheckColumn) as count values in the
// encoding encs maps its tag to, returning the checked column and the
// remainder.
func checkSection(data []byte, count int, name string, encs []trace.ColumnEncoding) (trace.PackedColumn, []byte, error) {
	tag, col, rest, err := splitSection(data, name)
	if err != nil {
		return trace.PackedColumn{}, data, err
	}
	if int(tag) >= len(encs) || encs[tag] == 0 {
		return trace.PackedColumn{}, data, fmt.Errorf("wire: %s column has unknown encoding %#x", name, tag)
	}
	p, err := trace.CheckColumn(encs[tag], col, count)
	if err != nil {
		return p, data, fmt.Errorf("wire: %s column: %w", name, err)
	}
	return p, rest, nil
}
