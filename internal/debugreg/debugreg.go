// Package debugreg simulates the hardware debug registers (x86 DR0–DR3
// and their DR7 control bits) that RDX uses as address watchpoints.
//
// The simulation models the properties RDX's design depends on:
//
//   - scarcity: commodity x86 exposes exactly 4 data watchpoints; the
//     count is configurable to reproduce the paper's sensitivity study;
//   - width/alignment: each watchpoint covers a naturally aligned 1-, 2-,
//     4- or 8-byte range and traps on any access overlapping it;
//   - trap delivery: a matching access raises a synchronous debug
//     exception, delivered to a registered handler before execution
//     continues (the role SIGTRAP plays for a user-space profiler);
//   - kind filtering: watch stores only, or loads and stores (x86 has no
//     load-only mode; we model the RW=3 "read/write" and RW=1 "write"
//     encodings).
package debugreg

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// WatchKind mirrors the DR7 RW encodings that matter for data
// watchpoints.
type WatchKind uint8

const (
	// WatchReadWrite traps on loads and stores (DR7 RW=3).
	WatchReadWrite WatchKind = iota
	// WatchWrite traps on stores only (DR7 RW=1).
	WatchWrite
)

func (k WatchKind) matches(a mem.Access) bool {
	if k == WatchWrite {
		return a.Kind == mem.Store
	}
	return true
}

// MaxWidth is the widest range one watchpoint can cover, as on x86.
const MaxWidth = 8

// Watchpoint describes one armed debug register.
type Watchpoint struct {
	Addr  mem.Addr // base address, naturally aligned to Width
	Width uint8    // 1, 2, 4 or 8 bytes
	Kind  WatchKind
	// Tag is opaque client data carried with the watchpoint (RDX stores
	// the counter value captured when the watchpoint was armed).
	Tag uint64
}

// Covers reports whether access a overlaps the watched range and matches
// the watch kind — i.e. whether this watchpoint would trap on a. The
// simulated core uses it to decide the accesses its watch filter lets
// through before paying for full trap delivery.
func (w Watchpoint) Covers(a mem.Access) bool {
	if !w.Kind.matches(a) {
		return false
	}
	return a.Addr < w.Addr+mem.Addr(w.Width) && w.Addr < a.Addr+mem.Addr(a.Size)
}

// Trap is delivered to the handler when an access hits a watchpoint.
type Trap struct {
	Slot   int
	WP     Watchpoint
	Access mem.Access
}

// TrapHandler receives debug exceptions. It runs synchronously at the
// faulting access; the watchpoint remains armed unless the handler
// disarms it (matching how a SIGTRAP handler must reset DR7 itself).
type TrapHandler func(Trap)

// File is a set of hardware debug registers. It maintains an armed-slot
// count and (for files of up to 64 slots) a bitmask so the hot-path
// Check is O(armed): free when nothing is armed, and touching only armed
// slots otherwise.
type File struct {
	slots      []Watchpoint
	armed      []bool
	armedCount int
	armedMask  uint64 // bit i set iff slot i armed; valid when len(slots) <= 64
	handler    TrapHandler
	traps      uint64
	arms       uint64
}

// NewFile returns a debug-register file with n slots (n=4 matches x86).
func NewFile(n int, handler TrapHandler) *File {
	if n <= 0 {
		panic("debugreg: NewFile with n <= 0")
	}
	return &File{
		slots:   make([]Watchpoint, n),
		armed:   make([]bool, n),
		handler: handler,
	}
}

// NumSlots returns the number of debug registers.
func (f *File) NumSlots() int { return len(f.slots) }

// validWidth reports whether w is a legal watchpoint width.
func validWidth(w uint8) bool {
	return w == 1 || w == 2 || w == 4 || w == 8
}

// Arm programs slot with a watchpoint on the naturally aligned
// width-byte range containing addr. It returns an error for an invalid
// slot or width. Arming an already armed slot overwrites it, as writing
// DRx does on hardware.
func (f *File) Arm(slot int, addr mem.Addr, width uint8, kind WatchKind, tag uint64) error {
	if slot < 0 || slot >= len(f.slots) {
		return fmt.Errorf("debugreg: slot %d out of range [0,%d)", slot, len(f.slots))
	}
	if !validWidth(width) {
		return fmt.Errorf("debugreg: invalid watch width %d (want 1, 2, 4 or 8)", width)
	}
	base := addr &^ mem.Addr(width-1) // natural alignment, as DR7 LEN requires
	f.slots[slot] = Watchpoint{Addr: base, Width: width, Kind: kind, Tag: tag}
	if !f.armed[slot] {
		f.armed[slot] = true
		f.armedCount++
		f.armedMask |= 1 << uint(slot)
	}
	f.arms++
	return nil
}

// Disarm clears slot. Disarming an unarmed slot is a no-op.
func (f *File) Disarm(slot int) {
	if slot >= 0 && slot < len(f.slots) && f.armed[slot] {
		f.armed[slot] = false
		f.armedCount--
		f.armedMask &^= 1 << uint(slot)
	}
}

// DisarmAll clears every slot.
func (f *File) DisarmAll() {
	for i := range f.armed {
		f.armed[i] = false
	}
	f.armedCount = 0
	f.armedMask = 0
}

// IsArmed reports whether slot holds an active watchpoint.
func (f *File) IsArmed(slot int) bool {
	return slot >= 0 && slot < len(f.slots) && f.armed[slot]
}

// Slot returns the watchpoint in slot (meaningful only if armed).
func (f *File) Slot(slot int) Watchpoint { return f.slots[slot] }

// FreeSlot returns the index of an unarmed slot, or -1 if all are armed.
func (f *File) FreeSlot() int {
	for i, a := range f.armed {
		if !a {
			return i
		}
	}
	return -1
}

// AnyArmed reports whether at least one slot is armed. It is O(1).
func (f *File) AnyArmed() bool { return f.armedCount > 0 }

// ArmedSlots appends the indices of armed slots to dst and returns it.
func (f *File) ArmedSlots(dst []int) []int {
	for i, a := range f.armed {
		if a {
			dst = append(dst, i)
		}
	}
	return dst
}

// Check tests an access against every armed watchpoint, delivering a
// trap for each hit (multiple watchpoints on overlapping ranges each
// trap, matching DR6 reporting multiple set bits, in ascending slot
// order). It returns the number of traps delivered. The check is
// O(armed): it returns immediately when nothing is armed and otherwise
// visits only armed slots via the armed mask.
func (f *File) Check(a mem.Access) int {
	if f.armedCount == 0 {
		return 0
	}
	n := 0
	if len(f.slots) <= 64 {
		// Iterate the armed mask in ascending slot order. Trap handlers
		// may disarm slots mid-check, so each visited slot re-checks its
		// live armed bit — a slot disarmed by an earlier trap of the same
		// access must not trap, exactly as the full slot scan behaves.
		for m := f.armedMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if f.armedMask&(1<<uint(i)) != 0 && f.slots[i].Covers(a) {
				n++
				f.traps++
				if f.handler != nil {
					f.handler(Trap{Slot: i, WP: f.slots[i], Access: a})
				}
			}
		}
		return n
	}
	for i := range f.slots {
		if f.armed[i] && f.slots[i].Covers(a) {
			n++
			f.traps++
			if f.handler != nil {
				f.handler(Trap{Slot: i, WP: f.slots[i], Access: a})
			}
		}
	}
	return n
}

// FileState is the complete mutable state of a debug-register file,
// exported for lossless checkpoint/restore of a profiling session.
type FileState struct {
	Slots []Watchpoint
	Armed []bool
	Traps uint64
	Arms  uint64
}

// State captures the file's mutable state (a deep copy).
func (f *File) State() FileState {
	return FileState{
		Slots: append([]Watchpoint(nil), f.slots...),
		Armed: append([]bool(nil), f.armed...),
		Traps: f.traps,
		Arms:  f.arms,
	}
}

// SetState overwrites the file's state with a previously captured one.
// The slot count must match the file's and every armed watchpoint must
// be valid; the derived armed count and mask are rebuilt.
func (f *File) SetState(s FileState) error {
	if len(s.Slots) != len(f.slots) || len(s.Armed) != len(f.armed) {
		return fmt.Errorf("debugreg: state has %d slots, file has %d", len(s.Slots), len(f.slots))
	}
	for i, armed := range s.Armed {
		if armed && !validWidth(s.Slots[i].Width) {
			return fmt.Errorf("debugreg: state slot %d armed with invalid width %d", i, s.Slots[i].Width)
		}
	}
	copy(f.slots, s.Slots)
	f.armedCount = 0
	f.armedMask = 0
	for i, armed := range s.Armed {
		f.armed[i] = armed
		if armed {
			f.armedCount++
			f.armedMask |= 1 << uint(i)
		}
	}
	f.traps = s.Traps
	f.arms = s.Arms
	return nil
}

// Traps returns the total number of traps delivered.
func (f *File) Traps() uint64 { return f.traps }

// Arms returns the total number of Arm calls.
func (f *File) Arms() uint64 { return f.arms }
