package debugreg

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func load(addr uint64, size uint8) mem.Access {
	return mem.Access{Addr: mem.Addr(addr), Size: size, Kind: mem.Load}
}

func store(addr uint64, size uint8) mem.Access {
	return mem.Access{Addr: mem.Addr(addr), Size: size, Kind: mem.Store}
}

func TestArmAndTrap(t *testing.T) {
	var traps []Trap
	f := NewFile(4, func(tr Trap) { traps = append(traps, tr) })
	if err := f.Arm(0, 0x1000, 8, WatchReadWrite, 42); err != nil {
		t.Fatal(err)
	}
	f.Check(load(0x2000, 8)) // miss
	f.Check(load(0x1000, 8)) // hit
	if len(traps) != 1 {
		t.Fatalf("traps = %d, want 1", len(traps))
	}
	if traps[0].Slot != 0 || traps[0].WP.Tag != 42 {
		t.Errorf("trap = %+v", traps[0])
	}
	if f.Traps() != 1 {
		t.Errorf("Traps() = %d", f.Traps())
	}
}

func TestTrapRemainsArmedUntilDisarm(t *testing.T) {
	n := 0
	f := NewFile(1, func(Trap) { n++ })
	if err := f.Arm(0, 0x10, 8, WatchReadWrite, 0); err != nil {
		t.Fatal(err)
	}
	f.Check(load(0x10, 8))
	f.Check(load(0x10, 8))
	if n != 2 {
		t.Errorf("armed watchpoint trapped %d times, want 2 (stays armed)", n)
	}
	f.Disarm(0)
	f.Check(load(0x10, 8))
	if n != 2 {
		t.Errorf("disarmed watchpoint trapped")
	}
}

func TestNaturalAlignment(t *testing.T) {
	f := NewFile(1, nil)
	// Arming an unaligned address must align down, like DR7 LEN fields.
	if err := f.Arm(0, 0x1003, 8, WatchReadWrite, 0); err != nil {
		t.Fatal(err)
	}
	wp := f.Slot(0)
	if wp.Addr != 0x1000 {
		t.Errorf("watchpoint base = %#x, want 0x1000", uint64(wp.Addr))
	}
}

func TestWidthSemantics(t *testing.T) {
	hits := 0
	f := NewFile(1, func(Trap) { hits++ })
	if err := f.Arm(0, 0x100, 4, WatchReadWrite, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		acc  mem.Access
		want bool
	}{
		{load(0x100, 1), true},
		{load(0x103, 1), true},
		{load(0x104, 1), false},
		{load(0xFF, 1), false},
		{load(0xFE, 4), true}, // straddles into the watched range
		{load(0x102, 8), true},
	}
	for _, c := range cases {
		before := hits
		f.Check(c.acc)
		if got := hits > before; got != c.want {
			t.Errorf("access %v trap = %v, want %v", c.acc, got, c.want)
		}
	}
}

func TestWatchWriteKind(t *testing.T) {
	hits := 0
	f := NewFile(1, func(Trap) { hits++ })
	if err := f.Arm(0, 0x40, 8, WatchWrite, 0); err != nil {
		t.Fatal(err)
	}
	f.Check(load(0x40, 8))
	if hits != 0 {
		t.Error("write watchpoint trapped on load")
	}
	f.Check(store(0x40, 8))
	if hits != 1 {
		t.Error("write watchpoint missed store")
	}
}

func TestInvalidArmArguments(t *testing.T) {
	f := NewFile(2, nil)
	if err := f.Arm(-1, 0, 8, WatchReadWrite, 0); err == nil {
		t.Error("negative slot accepted")
	}
	if err := f.Arm(2, 0, 8, WatchReadWrite, 0); err == nil {
		t.Error("out-of-range slot accepted")
	}
	for _, w := range []uint8{0, 3, 5, 16} {
		if err := f.Arm(0, 0, w, WatchReadWrite, 0); err == nil {
			t.Errorf("invalid width %d accepted", w)
		}
	}
}

func TestFreeSlotAndCounts(t *testing.T) {
	f := NewFile(3, nil)
	if got := f.FreeSlot(); got != 0 {
		t.Errorf("FreeSlot on empty = %d", got)
	}
	for i := 0; i < 3; i++ {
		if err := f.Arm(i, uint64ToAddr(i)*8, 8, WatchReadWrite, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.FreeSlot(); got != -1 {
		t.Errorf("FreeSlot on full = %d", got)
	}
	if got := len(f.ArmedSlots(nil)); got != 3 {
		t.Errorf("%d slots armed, want 3", got)
	}
	f.Disarm(1)
	if got := f.FreeSlot(); got != 1 {
		t.Errorf("FreeSlot after disarm = %d", got)
	}
	slots := f.ArmedSlots(nil)
	if len(slots) != 2 || slots[0] != 0 || slots[1] != 2 {
		t.Errorf("ArmedSlots = %v", slots)
	}
	f.DisarmAll()
	if f.AnyArmed() {
		t.Error("DisarmAll left slots armed")
	}
}

func uint64ToAddr(i int) mem.Addr { return mem.Addr(i) }

func TestOverlappingWatchpointsBothTrap(t *testing.T) {
	n := 0
	f := NewFile(2, func(Trap) { n++ })
	if err := f.Arm(0, 0x100, 8, WatchReadWrite, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Arm(1, 0x100, 4, WatchReadWrite, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Check(load(0x100, 4)); got != 2 {
		t.Errorf("Check returned %d traps, want 2", got)
	}
	if n != 2 {
		t.Errorf("handler invoked %d times, want 2", n)
	}
}

func TestArmOverwrites(t *testing.T) {
	f := NewFile(1, nil)
	if err := f.Arm(0, 0x100, 8, WatchReadWrite, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Arm(0, 0x200, 8, WatchReadWrite, 2); err != nil {
		t.Fatal(err)
	}
	if got := f.Check(load(0x100, 8)); got != 0 {
		t.Error("old watchpoint survived overwrite")
	}
	if got := f.Check(load(0x200, 8)); got != 1 {
		t.Error("new watchpoint not armed")
	}
	if f.Arms() != 2 {
		t.Errorf("Arms = %d, want 2", f.Arms())
	}
}

// Property: a watchpoint traps exactly when the access range overlaps the
// aligned watch range and the kind matches.
func TestTrapIffOverlapProperty(t *testing.T) {
	f := func(watchAddr, accAddr uint32, widthSel, sizeSel uint8, isStore, watchWriteOnly bool) bool {
		widths := []uint8{1, 2, 4, 8}
		width := widths[widthSel%4]
		size := widths[sizeSel%4]
		kind := WatchReadWrite
		if watchWriteOnly {
			kind = WatchWrite
		}
		hit := false
		file := NewFile(1, func(Trap) { hit = true })
		if err := file.Arm(0, mem.Addr(watchAddr), width, kind, 0); err != nil {
			return false
		}
		acc := mem.Access{Addr: mem.Addr(accAddr), Size: size, Kind: mem.Load}
		if isStore {
			acc.Kind = mem.Store
		}
		file.Check(acc)

		base := mem.Addr(watchAddr) &^ mem.Addr(width-1)
		overlaps := acc.Addr < base+mem.Addr(width) && base < acc.Addr+mem.Addr(acc.Size)
		kindOK := !watchWriteOnly || isStore
		return hit == (overlaps && kindOK)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewFilePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFile(0) did not panic")
		}
	}()
	NewFile(0, nil)
}
