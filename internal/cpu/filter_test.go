package cpu

import (
	"slices"
	"testing"

	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/stats"
)

// TestWatchFilterCoversEveryTrap drives a debug-register file through
// random arms, re-arms, disarms, DisarmAlls and state restores, with
// slots packed against both ends of the address space, and after each
// change requires of the filter that it list exactly the armed slots,
// that every access start an armed slot can trap, [w-S_max, w+W) mod
// 2^64, probe set, and that a row wider than S_max pass anywhere.
func TestWatchFilterCoversEveryTrap(t *testing.T) {
	const slots = 9
	f := debugreg.NewFile(slots, nil)
	filter := &watchFilter{}
	rng := stats.NewRNG(3)
	saved := f.State()
	for op := 0; op < 3000; op++ {
		switch r := rng.Uint64n(100); {
		case r < 60:
			var addr mem.Addr
			switch rng.Uint64n(3) {
			case 0:
				addr = mem.Addr(rng.Uint64n(300))
			case 1:
				addr = ^mem.Addr(rng.Uint64n(300))
			default:
				addr = mem.Addr(1<<40 + rng.Uint64n(1<<16))
			}
			width := []uint8{1, 2, 4, 8}[rng.Uint64n(4)]
			if err := f.Arm(int(rng.Uint64n(slots)), addr, width, debugreg.WatchReadWrite, 0); err != nil {
				t.Fatal(err)
			}
		case r < 90:
			f.Disarm(int(rng.Uint64n(slots)))
		case r < 93:
			f.DisarmAll()
		case r < 96:
			saved = f.State()
		default:
			if err := f.SetState(saved); err != nil {
				t.Fatal(err)
			}
		}
		var want []debugreg.Watchpoint
		for _, s := range f.ArmedSlots(nil) {
			want = append(want, f.Slot(s))
		}
		armed := filter.sync(f)
		if !slices.Equal(armed, want) {
			t.Fatalf("op %d: filter lists %v, armed %v", op, armed, want)
		}
		for _, w := range armed {
			for a := w.Addr - maxProbedSize; a != w.Addr+mem.Addr(w.Width); a++ {
				if !probe(filter.bits, filter.mask, a) {
					t.Fatalf("op %d: access at %#x can trap %+v but its bit is clear", op, uint64(a), w)
				}
			}
		}
		wide := mem.Access{Addr: mem.Addr(rng.Uint64()), Size: maxProbedSize + 1}
		if !filter.passes(wide) || firstProbeRow(filter.bits, filter.mask, []mem.Access{wide}) != 0 {
			t.Fatalf("op %d: a %d-byte row at %#x does not pass", op, wide.Size, uint64(wide.Addr))
		}
	}
}
