package wire

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/trace"
)

// The reference v3 encoder: the original append-based column encoders,
// which encode every candidate in full and keep the smaller. The
// production encoder sizes the candidates and writes only the winner;
// the tests hold its output byte-identical to this one.

func refZigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// refAppendDeltaColumn appends the delta + zig-zag varint encoding of
// vals to dst.
func refAppendDeltaColumn(dst []byte, vals []mem.Addr) []byte {
	var prev mem.Addr
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, refZigzag(int64(v)-int64(prev)))
		prev = v
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
	for _, vals := range [][]mem.Addr{cols.Addrs, cols.PCs} {
		delta, dod := refAppendDeltaColumn(nil, vals), refAppendDoDColumn(nil, vals)
		if len(dod) < len(delta) {
			section(colEncDoD, dod)
		} else {
			section(colEncDelta, delta)
		}
	}
	if rle := refAppendRLEColumn(nil, cols.Meta); len(rle) < len(cols.Meta) {
		section(colEncRLE, rle)
	} else {
		section(colEncRaw, cols.Meta)
	}
	return dst
}
