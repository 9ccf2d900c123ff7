package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/trace"
)

// The reference encoder: append-based column encoders that encode
// every candidate in full, bit by bit, and keep the smaller. The
// production encoder packs a word at a time and sizes or writes the
// delta-of-delta candidate only when a bound says it may win; the tests
// hold its output byte-identical to this one.

func refZigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// refAppendPackedColumn appends the frame-of-reference bit-packed
// encoding of vals to dst: per block of up to trace.PackBlock values,
// the bit length of the OR of its zig-zag deltas, then each delta in
// that many bits, LSB-first, written one bit at a time.
func refAppendPackedColumn(dst []byte, vals []mem.Addr) []byte {
	var prev mem.Addr
	for start := 0; start < len(vals); start += trace.PackBlock {
		blk := vals[start:min(start+trace.PackBlock, len(vals))]
		zz := make([]uint64, len(blk))
		var or uint64
		for i, v := range blk {
			zz[i] = refZigzag(int64(v - prev))
			prev = v
			or |= zz[i]
		}
		w := bits.Len64(or)
		dst = append(dst, byte(w))
		packed := make([]byte, (len(blk)*w+7)/8)
		bit := 0
		for _, z := range zz {
			for k := range w {
				packed[bit/8] |= byte(z>>k&1) << (bit % 8)
				bit++
			}
		}
		dst = append(dst, packed...)
	}
	return dst
}

// refAppendDoDColumn appends the zero-run delta-of-delta encoding of
// vals to dst.
func refAppendDoDColumn(dst []byte, vals []mem.Addr) []byte {
	var prev, prevDelta int64
	var zeros uint64
	for _, v := range vals {
		d := int64(v) - prev
		prev = int64(v)
		if d == prevDelta {
			zeros++
			continue
		}
		dst = binary.AppendUvarint(dst, zeros)
		dst = binary.AppendUvarint(dst, refZigzag(d-prevDelta))
		zeros = 0
		prevDelta = d
	}
	if zeros > 0 {
		dst = binary.AppendUvarint(dst, zeros)
	}
	return dst
}

// refAppendRLEColumn appends the (value, run-length uvarint) encoding of
// vals to dst.
func refAppendRLEColumn(dst []byte, vals []byte) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = append(dst, vals[i])
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// refEncodeColumns is EncodeColumns built from the reference encoders.
func refEncodeColumns(seq uint64, cols *trace.Columns) []byte {
	dst := binary.BigEndian.AppendUint64(nil, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(cols.Len()))
	section := func(tag byte, data []byte) {
		dst = append(dst, tag)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
		dst = binary.BigEndian.AppendUint32(dst, colCRC(tag, data))
		dst = append(dst, data...)
	}
	for _, vals := range [][]mem.Addr{cols.Addrs(), cols.PCs()} {
		packed, dod := refAppendPackedColumn(nil, vals), refAppendDoDColumn(nil, vals)
		if len(dod) < len(packed) {
			section(colEncDoD, dod)
		} else {
			section(colEncPacked, packed)
		}
	}
	if rle := refAppendRLEColumn(nil, cols.Meta()); len(rle) < len(cols.Meta()) {
		section(colEncRLE, rle)
	} else {
		section(colEncRaw, cols.Meta())
	}
	return dst
}

// refDecodeColumns is the eager decoder DecodeColumnsInto's checks must
// agree with: the header and section checks, then each section through
// its per-column unpacker (trace.DecodePackedColumn, DecodeDoDColumn,
// DecodeRLEColumn) and the meta bytes through trace.FirstInvalidMeta.
// It returns the batch's address, PC and meta columns.
func refDecodeColumns(payload []byte) (addrs, pcs []mem.Addr, meta []byte, err error) {
	if len(payload) < columnsHdrBytes {
		return nil, nil, nil, errors.New("payload lacks its header")
	}
	count := int(binary.BigEndian.Uint32(payload[batchSeqBytes:]))
	if count > MaxColumnBatch {
		return nil, nil, nil, errors.New("count over the limit")
	}
	rest := payload[columnsHdrBytes:]
	for _, col := range []struct {
		name string
		vals *[]mem.Addr
	}{{"address", &addrs}, {"pc", &pcs}} {
		var tag byte
		var data []byte
		tag, data, rest, err = splitSection(rest, col.name)
		switch {
		case err != nil:
		case tag == colEncPacked:
			*col.vals, err = trace.DecodePackedColumn(nil, data, count)
		case tag == colEncDoD:
			*col.vals, err = trace.DecodeDoDColumn(nil, data, count)
		default:
			err = errors.New("unknown address encoding")
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	tag, col, rest, err := splitSection(rest, "meta")
	switch {
	case err != nil:
	case tag == colEncRaw && len(col) == count:
		meta = col
	case tag == colEncRLE:
		meta, err = trace.DecodeRLEColumn(nil, col, count)
	default:
		err = errors.New("bad meta section")
	}
	if err == nil && (trace.FirstInvalidMeta(meta) >= 0 || len(rest) > 0) {
		err = errors.New("invalid meta byte or trailing bytes")
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return addrs, pcs, meta, nil
}
