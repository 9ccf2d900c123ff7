package exact

import (
	"math/bits"
	"unsafe"

	"repro/internal/mem"
)

// blockTable maps blocks to a per-block record V: an open-addressed,
// linear-probing hash table with the records stored inline, so a lookup
// is one hashed probe into one flat array. Every block number is a
// legal key (0 and MaxUint64 included, at byte granularity), so an
// entry is empty when its record is the zero V — each V keeps a field
// that is never zero in a stored record. The table is power-of-two
// sized and grows at 3/4 load; blocks are never removed.
type blockTable[V comparable] struct {
	ents []tableEntry[V]
	// pcs[i] is the PC of the last access to ents[i]'s block, for
	// attribution; nil when the table keeps no PCs.
	pcs  []mem.Addr
	mask uint64
	n    int // stored entries
}

type tableEntry[V comparable] struct {
	block mem.Addr
	rec   V
}

// newBlockTable returns a table sized to hold hint blocks without
// growing, keeping per-block PCs when withPCs.
func newBlockTable[V comparable](hint int, withPCs bool) blockTable[V] {
	size := tableSize(hint)
	t := blockTable[V]{ents: make([]tableEntry[V], size), mask: uint64(size - 1)}
	if withPCs {
		t.pcs = make([]mem.Addr, size)
	}
	return t
}

// tableSize is the power-of-two entry count that holds n blocks within
// the 3/4 load limit.
func tableSize(n int) int {
	return 1 << bits.Len(uint((4*max(n, 12)+2)/3-1))
}

// hashBlock is a full 64-bit mix (the murmur3 finalizer): every key bit
// reaches the low bits the table indexes by, so power-of-two strides,
// which leave low bits constant, spread over the table.
func hashBlock(b mem.Addr) uint64 {
	x := uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// find returns the index of b's entry and true, or the index of the
// empty entry where b belongs and false.
func (t *blockTable[V]) find(b mem.Addr) (int, bool) {
	var empty V
	for i := hashBlock(b) & t.mask; ; i = (i + 1) & t.mask {
		e := &t.ents[i]
		if e.rec == empty {
			return int(i), false
		}
		if e.block == b {
			return int(i), true
		}
	}
}

// prefetchDistance is how many accesses ahead the measurement loops
// touch the entry a coming access will probe: a large footprint's table
// outgrows the caches, and touching ahead overlaps its misses instead
// of paying them one after another.
const prefetchDistance = 8

// touch loads the home entry of b, so a find of b soon after hits the
// cache. The caller keeps the result (runtime.KeepAlive) so the load is
// not eliminated.
func (t *blockTable[V]) touch(b mem.Addr) mem.Addr {
	return t.ents[hashBlock(b)&t.mask].block
}

// insert stores a new entry b → rec at i, the index find(b) returned,
// and returns the entry's index: it moves when the table had to grow.
// rec must not be the zero V.
func (t *blockTable[V]) insert(i int, b mem.Addr, rec V) int {
	if 4*(t.n+1) > 3*len(t.ents) {
		t.grow()
		i, _ = t.find(b)
	}
	t.ents[i] = tableEntry[V]{block: b, rec: rec}
	t.n++
	return i
}

// grow doubles the table and rehashes every entry with its PC.
func (t *blockTable[V]) grow() {
	old, oldPCs := t.ents, t.pcs
	*t = newBlockTable[V](len(old), oldPCs != nil)
	var empty V
	for j := range old {
		if old[j].rec == empty {
			continue
		}
		i, _ := t.find(old[j].block)
		t.ents[i] = old[j]
		if oldPCs != nil {
			t.pcs[i] = oldPCs[j]
		}
		t.n++
	}
}

// stateBytes is the heap the table holds.
func (t *blockTable[V]) stateBytes() uint64 { return tableBytes[V](len(t.ents), t.pcs != nil) }

// tableBytes is the heap a table of size entries holds.
func tableBytes[V comparable](size int, withPCs bool) uint64 {
	b := uint64(size) * uint64(unsafe.Sizeof(tableEntry[V]{}))
	if withPCs {
		b += uint64(size) * 8
	}
	return b
}
