package cpu

import (
	"math"
	"math/bits"

	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The watch filter. An armed slot [w, w+W) can trap an access [a, a+S)
// only if a < w+W and w < a+S. With w+W not wrapping, every such access
// no wider than S_max has a in [w-S_max, w+W) mod 2^64; when w+W wraps
// to 0 nothing is covered, and when a+S wraps a cannot also lie below
// w+W. S_max is maxProbedSize, the widest access a column can hold. The
// filter sets one bit, hashed from the 8-byte block index, for every
// block that window touches, for every armed slot. An access no wider
// than S_max whose block's bit is clear cannot trap, so the scan pays
// one probe per access; Covers decides exactly each access whose bit is
// set (another slot's block, a hash collision or the window's slack can
// set it) and each row wider than S_max, which no column and no
// workload holds.
const (
	// maxProbedSize is S_max: the widest access the filter's windows
	// cover.
	maxProbedSize = trace.MaxMetaSize

	// blockShift maps an address to its 8-byte block; blockMask wraps a
	// block index around the top of the address space.
	blockShift = 3
	blockMask  = math.MaxUint64 >> blockShift

	// blocksPerSlot is the most blocks one slot's window touches.
	blocksPerSlot = (maxProbedSize+debugreg.MaxWidth+7)/8 + 1

	// filterLoad is the ratio of filter bits to the bits the slots of a
	// full register file set, bounding the share of set bits near
	// 1/filterLoad; minFilterBits and maxFilterBits clamp the size.
	filterLoad    = 32
	minFilterBits = 1 << 12
	maxFilterBits = 1 << 22

	// fibHash is 2^64 over the golden ratio: multiplying a block index
	// by it and keeping bits from hashShift up spreads strided blocks
	// evenly. A constant shift and a variable mask, not a variable
	// shift, keep the probe to one multiply, shift and and.
	fibHash   = 0x9e3779b97f4a7c15
	hashShift = 32
)

// watchFilter mirrors the debug registers for a scan: the armed slots
// and the filter bitmap over them. Each sync compares every slot with
// the range its bits were set for and updates only the slots that
// changed: a newly armed or moved slot sets its bits, and a disarmed or
// moved one leaves its old bits set, counted as stale, until the stale
// slots outnumber the armed ones and the bitmap is rebuilt.
type watchFilter struct {
	bits  []uint64
	mask  uint64                // len(bits)*64 - 1: hash to bit index
	slots []debugreg.Watchpoint // per slot, the range its bits cover (Width 0: none)
	armed []debugreg.Watchpoint // the armed slots, for Covers
	stale int                   // slots whose bits no longer match an armed range
}

// sync brings the filter up to date with drs and returns the armed
// slots. The snapshot holds for one segment: the armed set only changes
// when an event is delivered, and the segment ends there.
func (f *watchFilter) sync(drs *debugreg.File) []debugreg.Watchpoint {
	if len(f.slots) != drs.NumSlots() {
		f.reset(drs.NumSlots())
	}
	f.armed = f.armed[:0]
	for s := range f.slots {
		var w debugreg.Watchpoint
		if drs.IsArmed(s) {
			w = drs.Slot(s)
			f.armed = append(f.armed, w)
		}
		if old := f.slots[s]; old.Addr != w.Addr || old.Width != w.Width {
			if old.Width != 0 {
				f.stale++
			}
			if w.Width != 0 {
				f.mark(w)
			}
		}
		f.slots[s] = w
	}
	if f.stale > len(f.armed) {
		clear(f.bits)
		f.stale = 0
		for _, w := range f.armed {
			f.mark(w)
		}
	}
	return f.armed
}

// reset sizes an empty filter for n slots.
func (f *watchFilter) reset(n int) {
	nbits := min(max(filterLoad*n*blocksPerSlot, minFilterBits), maxFilterBits)
	nbits = 1 << bits.Len(uint(nbits-1))
	f.bits = make([]uint64, nbits/64)
	f.mask = uint64(nbits - 1)
	f.slots = make([]debugreg.Watchpoint, n)
	f.stale = 0
}

// mark sets the bits of every block an access no wider than S_max that
// w can trap may start in.
func (f *watchFilter) mark(w debugreg.Watchpoint) {
	lo := w.Addr - maxProbedSize
	last := (w.Addr + mem.Addr(w.Width) - 1) >> blockShift
	for b := lo >> blockShift; ; b = (b + 1) & blockMask {
		h := blockBit(b, f.mask)
		f.bits[h>>6] |= 1 << (h & 63)
		if b == last {
			return
		}
	}
}

// blockBit maps a block index to its bit in a filter of mask+1 bits.
func blockBit(block mem.Addr, mask uint64) uint64 {
	return uint64(block) * fibHash >> hashShift & mask
}

// probe reports whether addr's block bit is set in bits, a filter of
// mask+1 bits.
func probe(bits []uint64, mask uint64, addr mem.Addr) bool {
	h := blockBit(addr>>blockShift, mask)
	return bits[h>>6]&(1<<(h&63)) != 0
}

// passes reports whether a may trap: whether it is wider than the
// filter's windows or its block's bit is set.
func (f *watchFilter) passes(a mem.Access) bool {
	return a.Size > maxProbedSize || probe(f.bits, f.mask, a.Addr)
}

// firstProbeRow returns the index of the first row the filter passes,
// or len(rows). It is the row form's scan loop, kept out of line from
// the exact check so that the loop holds its state in registers
// (inlined, it spills the hash and the bitmap to the stack).
//
//go:noinline
func firstProbeRow(bits []uint64, mask uint64, rows []mem.Access) int {
	for k := range rows {
		if rows[k].Size > maxProbedSize || probe(bits, mask, rows[k].Addr) {
			return k
		}
	}
	return len(rows)
}

// firstProbeAddr is firstProbeRow over an address column, whose
// accesses are never wider than S_max: the probe alone decides.
//
//go:noinline
func firstProbeAddr(bits []uint64, mask uint64, addrs []mem.Addr) int {
	for k, addr := range addrs {
		if probe(bits, mask, addr) {
			return k
		}
	}
	return len(addrs)
}

// coversAny reports whether any of wps would trap on a.
func coversAny(wps []debugreg.Watchpoint, a mem.Access) bool {
	for k := range wps {
		if wps[k].Covers(a) {
			return true
		}
	}
	return false
}
