// Package mem defines the fundamental memory-access vocabulary shared by
// every layer of the RDX reproduction: virtual addresses, access records as
// they appear in a trace, and measurement granularities (byte, word,
// cache line) used to map raw addresses onto the blocks whose reuse is
// being measured.
package mem

import "fmt"

// Addr is a virtual byte address.
type Addr uint64

// Kind distinguishes loads from stores. Reuse distance is agnostic to the
// kind, but the PMU can be programmed to sample only one of them and some
// workloads skew heavily one way, so traces carry it.
type Kind uint8

const (
	// Load is a memory read.
	Load Kind = iota
	// Store is a memory write.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one dynamic memory access: the effective byte address, the
// program counter of the instruction that issued it, the access width in
// bytes (1, 2, 4 or 8), and whether it was a load or a store. It is
// deliberately a small value type: simulations stream hundreds of
// millions of them.
//
// In-process profiling takes any Size and Kind. The RDT3 trace file and
// the wire's column batches carry only sizes up to 15 bytes and the
// kinds Load and Store: they refuse any other access with an error
// (trace.ErrUnfitAccess), so a file or remote profile never silently
// differs from the in-process one.
//
// The PC is what makes attribution possible: profilers that capture the
// sampled access's PC and the reusing access's PC can report which pair
// of code locations carries each reuse — the actionable output of a
// locality tool. Synthetic workloads assign stable fake code addresses
// per kernel site.
type Access struct {
	Addr Addr
	PC   Addr
	Size uint8
	Kind Kind
}

// Overlaps reports whether the byte ranges [a.Addr, a.Addr+a.Size) and
// [b.Addr, b.Addr+b.Size) intersect.
func (a Access) Overlaps(b Access) bool {
	return a.Addr < b.Addr+Addr(b.Size) && b.Addr < a.Addr+Addr(a.Size)
}

// String formats the access for diagnostics.
func (a Access) String() string {
	return fmt.Sprintf("%s %d@%#x", a.Kind, a.Size, uint64(a.Addr))
}

// Granularity is the block size, expressed as a power-of-two shift, at
// which reuse distance is measured. Granularity 0 is byte granularity;
// 3 is 8-byte words (the widest a hardware debug register can watch);
// 6 is a 64-byte cache line.
type Granularity uint8

// Common granularities.
const (
	ByteGranularity Granularity = 0
	WordGranularity Granularity = 3 // 8-byte machine words
	LineGranularity Granularity = 6 // 64-byte cache lines
)

// BlockSize returns the block size in bytes.
func (g Granularity) BlockSize() uint64 { return 1 << g }

// Block maps a byte address to its block number at this granularity.
// Distinct block numbers correspond to distinct memory locations in the
// reuse-distance sense.
func (g Granularity) Block(a Addr) Addr { return a >> g }

// BlockBase returns the lowest byte address within a's block.
func (g Granularity) BlockBase(a Addr) Addr { return a >> g << g }

// String names the granularity ("1B", "8B", "64B", ...).
func (g Granularity) String() string {
	return fmt.Sprintf("%dB", g.BlockSize())
}
