package exact

import (
	"math"
	"testing"

	"repro/internal/mem"
)

// TestBlockTableEdgeKeys stores keys a table is easiest to get wrong
// with — 0 (an empty entry's key), MaxUint64, and power-of-two strides
// whose low bits never change — through several doublings, and checks
// every key still finds its record and PC and no absent key is found.
func TestBlockTableEdgeKeys(t *testing.T) {
	keys := []mem.Addr{0, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
	for shift := 6; shift <= 40; shift += 17 {
		for i := 1; i <= 300; i++ {
			keys = append(keys, mem.Addr(i)<<shift)
		}
	}
	tab := newBlockTable[uint32](0, true)
	for i, k := range keys {
		j, found := tab.find(k)
		if found {
			t.Fatalf("key %#x found before insert", k)
		}
		j = tab.insert(j, k, uint32(i)+1)
		tab.pcs[j] = k ^ 0xabc
	}
	if tab.n != len(keys) {
		t.Fatalf("n = %d, want %d", tab.n, len(keys))
	}
	if 4*tab.n > 3*len(tab.ents) {
		t.Fatalf("load %d/%d above 3/4", tab.n, len(tab.ents))
	}
	for i, k := range keys {
		j, found := tab.find(k)
		if !found || tab.ents[j].rec != uint32(i)+1 || tab.pcs[j] != k^0xabc {
			t.Fatalf("key %#x: found=%v rec=%d pc=%#x", k, found, tab.ents[j].rec, tab.pcs[j])
		}
	}
	for _, k := range []mem.Addr{1, 7, math.MaxUint64 - 2, 301 << 6, 301 << 23} {
		if _, found := tab.find(k); found {
			t.Errorf("absent key %#x found", k)
		}
	}
}

// TestTableSizeHoldsHint checks a table pre-sized for n blocks holds
// them without growing.
func TestTableSizeHoldsHint(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 48, 49, 1000, 1 << 20} {
		size := tableSize(n)
		if size&(size-1) != 0 || 4*max(n, 1) > 3*size {
			t.Errorf("tableSize(%d) = %d: not a power of two holding %d within 3/4 load", n, size, n)
		}
		if size > 1 && 4*max(n, 12) <= 3*(size/2) {
			t.Errorf("tableSize(%d) = %d: half the size would do", n, size)
		}
	}
}
