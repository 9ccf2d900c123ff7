package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// Columnar access batches.
//
// A Columns value holds one batch of accesses split by field — the
// layout behind the wire protocol's v4 columnar batch frames and the
// engine's vectorized execute path. Splitting the stream into vectors
// exposes the structure delta encoding exploits: address streams are
// strided or clustered, PC streams cycle through a handful of code
// sites, and the kind/size metadata is near-constant, so each column
// compresses far better than the row-wise RDT3 record stream where the
// three interleave.
//
// Column encodings (the wire protocol's v4 batch sections):
//
//   - Addrs and PCs: either frame-of-reference bit-packed deltas or
//     zero-run delta-of-delta. Packed columns are blocks of up to
//     PackBlock values: each value's delta against the previous one
//     (the first against 0) is zig-zag mapped, and the block stores one
//     width byte — the bit length of the OR of its mapped deltas, 0-64 —
//     then every delta in exactly that many bits, LSB-first, in
//     ceil(n*width/8) bytes (Lemire & Boytsov, "Decoding billions of
//     integers per second through vectorization", SPE 2015). Every
//     value's bit offset is known before it is read, so decoding
//     carries no dependency but the prefix sum. In zero-run
//     delta-of-delta, a constant stride makes every second-order delta
//     zero and a whole run of accesses collapses to one run-length
//     uvarint — how a scan costs a few bytes per batch. PutAddrColumn
//     writes the smaller of the two, packed on a tie;
//   - Meta: one byte per access packing kind and size exactly like an
//     RDT3 record header (bit 0 kind, bits 1-4 size), either raw or
//     run-length encoded as (value, run length) pairs — real workloads
//     hold these constant for thousands of accesses.
//
// Address columns are encoded in one packing pass that also sums a
// lower bound on the delta-of-delta length (PutAddrColumn): the exact
// delta-of-delta length is computed only when that bound is below the
// packed length, so irregular streams pay for the second-order model
// with a few arithmetic operations per value rather than a branchy
// sizing pass. Columns whose first block mostly keeps one stride are
// sized exactly first and only the winner is written. The meta column
// is sized exactly (RLEColumnLen), so the caller reserves its length
// plus ColumnSlack and writes only the smaller encoding.
//
// A received column is checked and unpacked in two steps. Its structure
// walk (CheckColumn) accepts exactly what its Decode* unpacker accepts,
// in one step per block, varint or run, and Columns.AppendPacked keeps
// the checked bytes packed until the column is first read; unpacking
// then cannot fail. Checking into a Columns whose scratch has grown to
// its steady size allocates nothing, and the Decode* unpackers are
// allocation-free once dst has, which keeps the ingest pipeline at zero
// allocations per batch.

// Columns is one batch of accesses in columnar (struct-of-arrays) form.
// Each column is either unpacked, its values held in a slice, or still
// packed: its verified encoded bytes wait in the Columns' scratch and
// are unpacked the first time the column is read (Addrs, PCs, Meta,
// Access). Columns built by AppendBatch are unpacked from the start;
// AppendPacked defers each column it is given. Len is the access count
// either way.
type Columns struct {
	addrs, pcs []mem.Addr
	// meta packs each access's kind and size into the RDT3 record
	// header byte: bit 0 kind (0 load, 1 store), bits 1-4 size
	// (PackMeta).
	meta []byte
	n    int

	// packed holds the encoded bytes of the columns still packed.
	// deferred[k] is column k's, its data in packed, while the column is
	// packed, and zero once it is unpacked; the column's values are its
	// slice followed by the deferred[k].count values its bytes decode to.
	packed   []byte
	deferred [3]PackedColumn
}

// Column indices into Columns.deferred.
const (
	addrCol = iota
	pcCol
	metaCol
)

// MaxMetaSize is the widest access a meta byte, and so an RDT3 record
// or a wire batch, can carry.
const MaxMetaSize = 0x0f

// metaUnfit is the meta byte of an access no meta byte can carry: wider
// than MaxMetaSize bytes, or of a kind other than Load or Store. Its bit
// 7 is set, which no packed access has (FirstInvalidMeta).
const metaUnfit = 0x80

// metaSpare holds the meta byte's bits no packed access sets.
const metaSpare = 0xe0

// ErrUnfitAccess is wrapped by the errors of the RDT3 writer and the
// wire batch encoder for an access they cannot carry. Local profiling
// takes any access; a file or remote profile of the same stream would
// differ from it, so those refuse the stream instead.
var ErrUnfitAccess = errors.New("trace: access wider than 15 bytes or of unknown kind does not fit a record")

// PackMeta packs an access's kind and size into a meta byte (the RDT3
// record-header packing), or metaUnfit, which FirstInvalidMeta finds,
// for an access the byte cannot carry.
func PackMeta(a mem.Access) byte {
	if a.Size > MaxMetaSize || a.Kind > mem.Store {
		return metaUnfit
	}
	return byte(a.Kind) | a.Size<<1
}

// FirstInvalidMeta returns the index of the first byte of meta with a
// bit set that no packed access sets — metaUnfit, or a corrupt byte — or
// -1 if there is none. It tests eight bytes at a time.
func FirstInvalidMeta(meta []byte) int {
	i := 0
	for ; i+8 <= len(meta); i += 8 {
		if binary.LittleEndian.Uint64(meta[i:])&(metaSpare*0x0101010101010101) != 0 {
			break
		}
	}
	for ; i < len(meta); i++ {
		if meta[i]&metaSpare != 0 {
			return i
		}
	}
	return -1
}

// MetaKind extracts the access kind from a meta byte.
func MetaKind(b byte) mem.Kind { return mem.Kind(b & 1) }

// MetaSize extracts the access size from a meta byte.
func MetaSize(b byte) uint8 { return b >> 1 & 0x0f }

// Len returns the number of accesses held.
func (c *Columns) Len() int { return c.n }

// Addrs returns the address column, unpacking it if it is still packed.
func (c *Columns) Addrs() []mem.Addr {
	if c.deferred[addrCol].enc != 0 {
		c.unpack(addrCol)
	}
	return c.addrs
}

// PCs returns the PC column, unpacking it if it is still packed.
func (c *Columns) PCs() []mem.Addr {
	if c.deferred[pcCol].enc != 0 {
		c.unpack(pcCol)
	}
	return c.pcs
}

// Meta returns the meta column, unpacking it if it is still packed.
func (c *Columns) Meta() []byte {
	if c.deferred[metaCol].enc != 0 {
		c.unpack(metaCol)
	}
	return c.meta
}

// Footprint returns the bytes c's buffers hold allocated, whatever
// their lengths: what keeping c for reuse retains.
func (c *Columns) Footprint() int {
	return 8*(cap(c.addrs)+cap(c.pcs)) + cap(c.meta) + cap(c.packed)
}

// Reset empties the columns, retaining capacity for reuse.
func (c *Columns) Reset() {
	c.addrs = c.addrs[:0]
	c.pcs = c.pcs[:0]
	c.meta = c.meta[:0]
	c.n = 0
	c.packed = c.packed[:0]
	c.deferred = [3]PackedColumn{}
}

// AppendBatch adds a recorded batch of accesses — the columnar builder
// for streams that are already materialized row-wise. Each column grows
// at most once, never doubling its way up.
func (c *Columns) AppendBatch(accs []mem.Access) {
	c.unpackAll()
	base, n := c.n, c.n+len(accs)
	c.addrs = slices.Grow(c.addrs, len(accs))[:n]
	c.pcs = slices.Grow(c.pcs, len(accs))[:n]
	c.meta = slices.Grow(c.meta, len(accs))[:n]
	c.n = n
	addrs, pcs, meta := c.addrs[base:n], c.pcs[base:n], c.meta[base:n]
	for i, a := range accs {
		addrs[i] = a.Addr
		pcs[i] = a.PC
		meta[i] = PackMeta(a)
	}
}

// AppendPacked adds a batch whose columns are still encoded, each
// checked by CheckColumn: addrs and pcs in an address encoding (EncPacked,
// EncDoD), meta in a meta one (EncRaw, EncRLE), all of one count. The
// encoded bytes are copied, so the buffer they came from may be reused
// as soon as AppendPacked returns; each column is unpacked the first
// time it is read. A raw meta column is copied in unpacked.
func (c *Columns) AppendPacked(addrs, pcs, meta PackedColumn) {
	if !addrs.addrs() || !pcs.addrs() || meta.enc != EncRaw && meta.enc != EncRLE || pcs.count != addrs.count || meta.count != addrs.count {
		panic("trace: AppendPacked needs address, PC and meta columns of one count")
	}
	c.unpackAll()
	// One reservation, so the appends below never move the bytes an
	// earlier column's deferred data points at.
	c.packed = slices.Grow(c.packed, len(addrs.data)+len(pcs.data)+len(meta.data))
	c.deferTo(addrCol, addrs)
	c.deferTo(pcCol, pcs)
	if meta.enc == EncRaw {
		c.meta = append(c.meta, meta.data...)
	} else {
		c.deferTo(metaCol, meta)
	}
	c.n += addrs.count
}

// deferTo copies p's bytes into the scratch as column k's packed tail.
func (c *Columns) deferTo(k int, p PackedColumn) {
	off := len(c.packed)
	c.packed = append(c.packed, p.data...)
	p.data = c.packed[off:]
	c.deferred[k] = p
}

// unpack decodes packed column k onto its slice. The column passed
// CheckColumn, after which its decoder cannot fail.
func (c *Columns) unpack(k int) {
	p := c.deferred[k]
	var err error
	switch {
	case p.enc == EncRLE:
		c.meta, err = DecodeRLEColumn(c.meta, p.data, p.count)
	case k == addrCol:
		c.addrs, err = p.decodeAddrs(c.addrs)
	default:
		c.pcs, err = p.decodeAddrs(c.pcs)
	}
	if err != nil {
		panic("trace: checked column fails to unpack: " + err.Error())
	}
	c.deferred[k] = PackedColumn{}
}

// unpackAll unpacks every column still packed.
func (c *Columns) unpackAll() {
	for k := range c.deferred {
		if c.deferred[k].enc != 0 {
			c.unpack(k)
		}
	}
	c.packed = c.packed[:0]
}

// Access reconstructs the i-th access, unpacking whichever columns are
// still packed. It allocates nothing, so event-delivery paths can
// materialize exactly the accesses they observe.
func (c *Columns) Access(i int) mem.Access {
	if c.deferred[addrCol].enc|c.deferred[pcCol].enc|c.deferred[metaCol].enc != 0 {
		c.unpackAll()
	}
	m := c.meta[i]
	return mem.Access{
		Addr: c.addrs[i],
		PC:   c.pcs[i],
		Size: MetaSize(m),
		Kind: MetaKind(m),
	}
}

// AppendTo materializes every access onto dst and returns the extended
// slice.
func (c *Columns) AppendTo(dst []mem.Access) []mem.Access {
	for i := range c.n {
		dst = append(dst, c.Access(i))
	}
	return dst
}

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode short).
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ColumnSlack is the spare room a Put*Column encoder needs past the end
// of the column it writes: varints and packed bits are stored as 8-byte
// words, so the last one may overhang the column by up to 7 bytes.
const ColumnSlack = 8

// uvarintLen is the encoded length of u as a uvarint: ceil(bits/7),
// computed as (9*bits+64)/64 to avoid a division.
func uvarintLen(u uint64) int { return (9*bits.Len64(u|1) + 64) >> 6 }

// putUvarint writes u as a uvarint at dst[pos:], returning the position
// after it. The low 56 bits' 7-bit groups are spread into bytes and
// stored as one word, continuation bits set on all but the varint's last
// byte (a 9- or 10-byte varint's top byte and final 1 follow); the store
// may overhang the varint by up to 7 bytes.
func putUvarint(dst []byte, pos int, u uint64) int {
	n := uvarintLen(u)
	w := u&0x0fffffff | u&0x00fffffff0000000<<4
	w = w&0x00003fff00003fff | w&0x0fffc0000fffc000<<2
	w = w&0x007f007f007f007f | w&0x3f803f803f803f80<<1
	binary.LittleEndian.PutUint64(dst[pos:], w|0x8080808080808080&(uint64(1)<<(8*n-8)-1))
	if n > 8 {
		dst[pos+8] = byte(u >> 56) // bit 7 is u's bit 63: set exactly when a 10th byte follows
		dst[pos+9] = 1
	}
	return pos + n
}

// uvarint decodes the uvarint at data[pos:] with binary.Uvarint's
// results (n == 0 truncated, n < 0 overflow). While 8 bytes remain it
// reads one word: the first clear continuation bit ends the varint, and
// the 7-bit groups below it are compacted into the value. Varints longer
// than 8 bytes and a column's last 7 bytes take binary.Uvarint.
func uvarint(data []byte, pos int) (uint64, int) {
	if pos <= len(data)-8 {
		w := binary.LittleEndian.Uint64(data[pos:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			w &= (stop ^ (stop - 1)) & 0x7f7f7f7f7f7f7f7f
			w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
			w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
			return w&0x000000000fffffff | w&0x0fffffff00000000>>4, bits.TrailingZeros64(stop)>>3 + 1
		}
	}
	return binary.Uvarint(data[pos:])
}

// PackBlock is the number of values in each frame-of-reference block of
// a packed column; only a column's last block may hold fewer.
const PackBlock = 128

// AddrColumnLens returns the exact encoded lengths of vals as a packed
// column (PutPackedColumn) and as a zero-run delta-of-delta column
// (PutDoDColumn), from one pass over the values.
func AddrColumnLens(vals []mem.Addr) (packed, dod int) {
	var prev, prevDelta mem.Addr
	var zeros uint64
	for start := 0; start < len(vals); start += PackBlock {
		blk := vals[start:min(start+PackBlock, len(vals))]
		var or uint64
		for _, v := range blk {
			d := v - prev
			prev = v
			or |= zigzag(int64(d))
			if d == prevDelta {
				zeros++
				continue
			}
			dod += uvarintLen(zeros) + uvarintLen(zigzag(int64(d-prevDelta)))
			zeros = 0
			prevDelta = d
		}
		packed += 1 + packedLen(len(blk), uint(bits.Len64(or)))
	}
	if zeros > 0 {
		dod += uvarintLen(zeros)
	}
	return packed, dod
}

// packedLen is the byte length of n values packed w bits each.
func packedLen(n int, w uint) int { return (n*int(w) + 7) >> 3 }

// PackedColumnMax is the longest a packed column of n values can be:
// every value at width 64 and one width byte per block. PutAddrColumn's
// dst must hold this plus ColumnSlack.
func PackedColumnMax(n int) int { return 8*n + (n+PackBlock-1)/PackBlock }

// PutAddrColumn writes vals to the front of dst in the smaller of the
// packed (PutPackedColumn) and zero-run delta-of-delta (PutDoDColumn)
// encodings, packed on a tie, and returns the length written and
// whether it is delta-of-delta. dst must hold PackedColumnMax(len(vals))
// plus ColumnSlack.
//
// A column whose first block mostly keeps one stride is sized exactly
// (AddrColumnLens) and only the winner is written. Any other column is
// packed straight away by a pass that also bounds its delta-of-delta
// length from below; the exact length is computed only when the bound
// is under the packed length, and the delta-of-delta encoding then
// overwrites the packed bytes only if it is strictly shorter.
func PutAddrColumn(dst []byte, vals []mem.Addr) (n int, dod bool) {
	if strideLed(vals[:min(PackBlock, len(vals))]) {
		packed, dodLen := AddrColumnLens(vals)
		if dodLen < packed {
			return PutDoDColumn(dst, vals), true
		}
		return PutPackedColumn(dst, vals), false
	}
	n, bound := packColumn(dst, vals)
	if bound < n {
		if _, dodLen := AddrColumnLens(vals); dodLen < n {
			return PutDoDColumn(dst, vals), true
		}
	}
	return n, false
}

// strideLed reports whether more than half of blk's values continue the
// stride before them, the shape on which delta-of-delta tends to win.
func strideLed(blk []mem.Addr) bool {
	var prev, prevDelta mem.Addr
	kept := 0
	for _, v := range blk {
		d := v - prev
		prev = v
		if d == prevDelta {
			kept++
		}
		prevDelta = d
	}
	return 2*kept > len(blk)
}

// PutPackedColumn writes the frame-of-reference bit-packed encoding of
// vals to the front of dst and returns its length: per block of up to
// PackBlock values, a width byte and the zig-zag deltas packed that many
// bits each, LSB-first. The first value is a delta against 0. dst must
// hold the column's length plus ColumnSlack.
func PutPackedColumn(dst []byte, vals []mem.Addr) int {
	n, _ := packColumn(dst, vals)
	return n
}

// dodCost[L] is the fewest bytes a zero-run delta-of-delta column can
// spend on a value whose zig-zag second-order delta is L bits long:
// none for a value continuing the stride (L = 0), else the delta's own
// uvarint and the run-length uvarint of at least one byte before it.
var dodCost = func() (c [65]uint8) {
	for l := 1; l <= 64; l++ {
		c[l] = uint8(uvarintLen(1<<(l-1)) + 1)
	}
	return c
}()

// packColumn is PutPackedColumn that also returns, from the same pass,
// a lower bound on the column's delta-of-delta length (PutDoDColumn):
// each value costs at least dodCost of its second-order delta there.
func packColumn(dst []byte, vals []mem.Addr) (n, dodBound int) {
	pos := 0
	var prev, prevDelta mem.Addr
	var zz [PackBlock]uint64
	for start := 0; start < len(vals); start += PackBlock {
		blk := vals[start:min(start+PackBlock, len(vals))]
		deltas := zz[:len(blk)]
		or, bound := blockDeltas(deltas, blk, prev, prevDelta)
		dodBound += bound
		prev, prevDelta = blk[len(blk)-1], mem.Addr(unzigzag(deltas[len(blk)-1]))
		w := uint(bits.Len64(or))
		dst[pos] = byte(w)
		pos = packBlock(dst, pos+1, deltas, w)
	}
	return pos, dodBound
}

// blockDeltas writes the zig-zag deltas of blk, the first against prev,
// to out and returns their OR and the sum of dodCost over their
// second-order deltas, the first against prevDelta. It stays out of
// line: inlined into packColumn's block loop, whose packBlock call
// spills the loop's state, it kept or, prev and prevDelta on the stack.
//
//go:noinline
func blockDeltas(out []uint64, blk []mem.Addr, prev, prevDelta mem.Addr) (or uint64, dodBound int) {
	out = out[:len(blk)]
	for i, v := range blk {
		d := v - prev
		prev = v
		z := zigzag(int64(d))
		out[i] = z
		or |= z
		dodBound += int(dodCost[bits.Len64(zigzag(int64(d-prevDelta)))])
		prevDelta = d
	}
	return or, dodBound
}

// packBlock writes vals, each below 1<<w, w bits apiece LSB-first at
// dst[pos:] and returns the position after their packedLen bytes. Full
// words are stored as they fill; the last partial word may overhang the
// block by up to 7 bytes.
func packBlock(dst []byte, pos int, vals []uint64, w uint) int {
	end := pos + packedLen(len(vals), w)
	if w == 0 {
		return end
	}
	var acc uint64
	var n uint // bits held in acc
	for _, v := range vals {
		acc |= v << n
		n += w
		if n >= 64 {
			binary.LittleEndian.PutUint64(dst[pos:], acc)
			pos += 8
			n -= 64
			acc = v >> (w - n) // v's bits the word had no room for (none when w - n is 64)
		}
	}
	if n > 0 {
		binary.LittleEndian.PutUint64(dst[pos:], acc)
	}
	return end
}

// PutDoDColumn writes the zero-run delta-of-delta encoding of vals to
// the front of dst and returns its length; dst must hold the column's
// length plus ColumnSlack. The column is (zeros, dod) pairs: a uvarint
// run length of values continuing the previous stride, then the zig-zag
// varint of the next non-zero second-order delta; a trailing run is a
// bare final uvarint.
func PutDoDColumn(dst []byte, vals []mem.Addr) int {
	pos := 0
	var prev, prevDelta mem.Addr
	var zeros uint64
	for _, v := range vals {
		d := v - prev
		prev = v
		if d == prevDelta {
			zeros++
			continue
		}
		pos = putUvarint(dst, pos, zeros)
		pos = putUvarint(dst, pos, zigzag(int64(d-prevDelta)))
		zeros = 0
		prevDelta = d
	}
	if zeros > 0 {
		pos = putUvarint(dst, pos, zeros)
	}
	return pos
}

// DecodePackedColumn decodes exactly count values of a packed column
// from data, appending them to dst. Widths above 64, blocks that overrun
// the column, and trailing bytes are corruption.
func DecodePackedColumn(dst []mem.Addr, data []byte, count int) ([]mem.Addr, error) {
	base := len(dst)
	dst = slices.Grow(dst, count)[:base+count]
	out := dst[base:]
	// unpackBlock reads whole words, up to 9 bytes past a value's first
	// byte; blocks that close to the column's end unpack from a copy.
	var tail [PackBlock*8 + 9]byte
	pos := 0
	var prev mem.Addr
	for start := 0; start < count; start += PackBlock {
		blk := out[start:min(start+PackBlock, count)]
		if pos >= len(data) {
			return dst[:base+start], fmt.Errorf("trace: packed column cut off at value %d: %w", start, ErrTruncated)
		}
		w := uint(data[pos])
		pos++
		if w > 64 {
			return dst[:base+start], fmt.Errorf("trace: packed column block at value %d has width %d, over 64", start, w)
		}
		n := packedLen(len(blk), w)
		if n > len(data)-pos {
			return dst[:base+start], fmt.Errorf("trace: packed column block at value %d needs %d bytes, %d left: %w", start, n, len(data)-pos, ErrTruncated)
		}
		src := data[pos:]
		if len(src) < n+9 {
			src = tail[:copy(tail[:], src[:n])+9]
		}
		prev = unpackBlock(blk, src, w, prev)
		pos += n
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: packed column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}

// unpackBlock decodes len(out) w-bit zig-zag deltas from src, which
// holds their packed bytes plus at least 9 more, prefix-summing them
// from prev; it returns the last value. Each value is one unaligned
// word load at a bit offset known up front (a second byte load when
// w > 56 lets a value straddle 9 bytes), so the prefix sum is the only
// dependency between values.
func unpackBlock(out []mem.Addr, src []byte, w uint, prev mem.Addr) mem.Addr {
	switch {
	case w == 0:
		for i := range out {
			out[i] = prev
		}
	case w <= 56:
		mask := uint64(1)<<w - 1
		bit := uint(0)
		for i := range out {
			v := binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask
			prev += mem.Addr(unzigzag(v))
			out[i] = prev
			bit += w
		}
	default:
		mask := ^uint64(0) >> (64 - w)
		bit := uint(0)
		for i := range out {
			p, s := bit>>3, bit&7
			v := (binary.LittleEndian.Uint64(src[p:])>>s | uint64(src[p+8])<<(64-s)) & mask
			prev += mem.Addr(unzigzag(v))
			out[i] = prev
			bit += w
		}
	}
	return prev
}

// DecodeDoDColumn decodes exactly count values of a zero-run
// delta-of-delta column from data, appending them to dst. Every byte
// must be consumed; runs past count and truncation are corruption.
func DecodeDoDColumn(dst []mem.Addr, data []byte, count int) ([]mem.Addr, error) {
	base := len(dst)
	dst = slices.Grow(dst, count)[:base+count]
	out := dst[base:]
	pos, i := 0, 0
	var prev, prevDelta mem.Addr
	for i < count {
		zeros, n := uvarint(data, pos)
		if n <= 0 {
			return dst[:base+i], dodVarintErr(n, i)
		}
		pos += n
		if zeros > uint64(count-i) {
			return dst[:base+i], fmt.Errorf("trace: delta-of-delta column runs past %d values", count)
		}
		// Each value of the run is prev + k*stride: independent
		// multiplies rather than a chain of dependent adds.
		run := out[i : i+int(zeros)]
		for k := range run {
			run[k] = prev + mem.Addr(k+1)*prevDelta
		}
		prev += mem.Addr(len(run)) * prevDelta
		i += int(zeros)
		if i == count {
			break
		}
		dod, n := uvarint(data, pos)
		if n <= 0 {
			return dst[:base+i], dodVarintErr(n, i)
		}
		pos += n
		prevDelta += mem.Addr(unzigzag(dod))
		prev += prevDelta
		out[i] = prev
		i++
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: delta-of-delta column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}

func dodVarintErr(n, i int) error {
	if n == 0 {
		return fmt.Errorf("trace: delta-of-delta column cut off at value %d: %w", i, ErrTruncated)
	}
	return fmt.Errorf("trace: delta-of-delta column value %d: varint overflows 64 bits", i)
}

// runEnd returns the end of the run of equal bytes starting at vals[i],
// comparing a word at a time.
func runEnd(vals []byte, i int) int {
	v := vals[i]
	bcast := uint64(v) * 0x0101010101010101
	j := i + 1
	for ; j <= len(vals)-8; j += 8 {
		if x := binary.LittleEndian.Uint64(vals[j:]) ^ bcast; x != 0 {
			return j + bits.TrailingZeros64(x)>>3
		}
	}
	for j < len(vals) && vals[j] == v {
		j++
	}
	return j
}

// RLEColumnLen returns the exact length of the run-length encoding of
// vals (PutRLEColumn).
func RLEColumnLen(vals []byte) int {
	n := 0
	for i := 0; i < len(vals); {
		j := runEnd(vals, i)
		n += 1 + uvarintLen(uint64(j-i))
		i = j
	}
	return n
}

// PutRLEColumn writes the run-length encoding of vals — (value,
// run-length uvarint) pairs — to the front of dst and returns its
// length. dst must hold the column's length plus ColumnSlack.
func PutRLEColumn(dst []byte, vals []byte) int {
	pos := 0
	for i := 0; i < len(vals); {
		j := runEnd(vals, i)
		dst[pos] = vals[i]
		pos = putUvarint(dst, pos+1, uint64(j-i))
		i = j
	}
	return pos
}

// DecodeRLEColumn decodes a run-length encoded column of exactly count
// bytes from data, appending them to dst. Zero-length runs, a total
// other than count, and trailing bytes are corruption.
func DecodeRLEColumn(dst []byte, data []byte, count int) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, count)[:base+count]
	out := dst[base:]
	pos, total := 0, 0
	for total < count {
		if pos >= len(data) {
			return dst[:base+total], fmt.Errorf("trace: RLE column ends after %d of %d values: %w", total, count, ErrTruncated)
		}
		v := data[pos]
		pos++
		run, n := uvarint(data, pos)
		if n <= 0 {
			if n == 0 {
				return dst[:base+total], fmt.Errorf("trace: RLE column cut off inside a run length: %w", ErrTruncated)
			}
			return dst[:base+total], fmt.Errorf("trace: RLE column run length overflows 64 bits")
		}
		pos += n
		if run == 0 {
			return dst[:base+total], fmt.Errorf("trace: RLE column contains a zero-length run")
		}
		if run > uint64(count-total) {
			return dst[:base+total], fmt.Errorf("trace: RLE column runs past %d values", count)
		}
		fill(out[total:total+int(run)], v)
		total += int(run)
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: RLE column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}

// ColumnEncoding names the encoding of a packed column (the wire
// protocol's v4 column sections).
type ColumnEncoding uint8

const (
	EncPacked ColumnEncoding = iota + 1 // address column: PutPackedColumn
	EncDoD                              // address column: PutDoDColumn
	EncRaw                              // meta column: its bytes verbatim
	EncRLE                              // meta column: PutRLEColumn
)

// PackedColumn is one encoded column that has passed CheckColumn, so
// unpacking it cannot fail.
type PackedColumn struct {
	enc   ColumnEncoding
	data  []byte
	count int
}

// addrs reports whether p is in an address column's encoding.
func (p PackedColumn) addrs() bool { return p.enc == EncPacked || p.enc == EncDoD }

// decodeAddrs unpacks p, an address column, onto dst.
func (p PackedColumn) decodeAddrs(dst []mem.Addr) ([]mem.Addr, error) {
	if p.enc == EncDoD {
		return DecodeDoDColumn(dst, p.data, p.count)
	}
	return DecodePackedColumn(dst, p.data, p.count)
}

// CheckColumn walks data as a column of exactly count values in
// encoding enc and returns it ready for Columns.AppendPacked, which
// copies it; until then it aliases data. It accepts exactly what the
// encoding's unpacker accepts — DecodePackedColumn, DecodeDoDColumn, a
// copy, or DecodeRLEColumn, the meta encodings followed by
// FirstInvalidMeta — without unpacking a value: a packed column costs
// one step per block, a delta-of-delta column one per varint, an RLE
// column one per run.
func CheckColumn(enc ColumnEncoding, data []byte, count int) (PackedColumn, error) {
	var err error
	switch enc {
	case EncPacked:
		err = checkPacked(data, count)
	case EncDoD:
		err = checkDoD(data, count)
	case EncRaw:
		if len(data) != count {
			err = fmt.Errorf("trace: raw meta column of %d bytes, want %d", len(data), count)
		} else if i := FirstInvalidMeta(data); i >= 0 {
			err = invalidMetaErr(data[i], i)
		}
	case EncRLE:
		err = checkRLEMeta(data, count)
	default:
		err = fmt.Errorf("trace: unknown column encoding %d", enc)
	}
	if err != nil {
		return PackedColumn{}, err
	}
	return PackedColumn{enc, data, count}, nil
}

// invalidMetaErr refuses a meta byte no encoder writes: it would decode
// to an access no encoder was given.
func invalidMetaErr(b byte, i int) error {
	return fmt.Errorf("trace: meta byte %#x of access %d is not a packed access", b, i)
}

// checkPacked walks DecodePackedColumn's block headers: every width at
// most 64, every block inside the column, no bytes after the last.
func checkPacked(data []byte, count int) error {
	pos := 0
	for start := 0; start < count; start += PackBlock {
		if pos >= len(data) {
			return fmt.Errorf("trace: packed column cut off at value %d: %w", start, ErrTruncated)
		}
		w := uint(data[pos])
		pos++
		if w > 64 {
			return fmt.Errorf("trace: packed column block at value %d has width %d, over 64", start, w)
		}
		n := packedLen(min(PackBlock, count-start), w)
		if n > len(data)-pos {
			return fmt.Errorf("trace: packed column block at value %d needs %d bytes, %d left: %w", start, n, len(data)-pos, ErrTruncated)
		}
		pos += n
	}
	if pos != len(data) {
		return fmt.Errorf("trace: packed column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return nil
}

// checkDoD walks DecodeDoDColumn's varints: (run, delta) pairs, every
// run inside count, no bytes after the last.
func checkDoD(data []byte, count int) error {
	pos, i := 0, 0
	for i < count {
		zeros, n := uvarint(data, pos)
		if n <= 0 {
			return dodVarintErr(n, i)
		}
		pos += n
		if zeros > uint64(count-i) {
			return fmt.Errorf("trace: delta-of-delta column runs past %d values", count)
		}
		i += int(zeros)
		if i == count {
			break
		}
		if _, n = uvarint(data, pos); n <= 0 {
			return dodVarintErr(n, i)
		}
		pos += n
		i++
	}
	if pos != len(data) {
		return fmt.Errorf("trace: delta-of-delta column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return nil
}

// checkRLEMeta walks DecodeRLEColumn's runs: none empty, their total
// count, no bytes after the last, and no run value with a spare bit.
func checkRLEMeta(data []byte, count int) error {
	pos, total := 0, 0
	for total < count {
		if pos >= len(data) {
			return fmt.Errorf("trace: RLE column ends after %d of %d values: %w", total, count, ErrTruncated)
		}
		v := data[pos]
		run, n := uvarint(data, pos+1)
		switch {
		case n == 0:
			return fmt.Errorf("trace: RLE column cut off inside a run length: %w", ErrTruncated)
		case n < 0:
			return fmt.Errorf("trace: RLE column run length overflows 64 bits")
		case run == 0:
			return fmt.Errorf("trace: RLE column contains a zero-length run")
		case run > uint64(count-total):
			return fmt.Errorf("trace: RLE column runs past %d values", count)
		case v&metaSpare != 0:
			return invalidMetaErr(v, total)
		}
		pos += 1 + n
		total += int(run)
	}
	if pos != len(data) {
		return fmt.Errorf("trace: RLE column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return nil
}

// fill sets every byte of s to v by doubling a copied prefix, so a long
// run costs a few memmoves rather than a byte loop.
func fill(s []byte, v byte) {
	s[0] = v
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}
