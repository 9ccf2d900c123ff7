package cpu

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// batch is one batch of accesses as the engine reads it, in either of
// its two forms: rows (cols nil) or columns. It is the only code that
// knows the layout. A column-form segment that reads addresses or kinds
// calls unpackAddrs or unpackMeta once before its loop, which unpacks
// that column if it is still packed and hoists its slice out of the
// loop; access unpacks whatever is left, so only delivered events and
// instrumented runs read the PC column.
type batch struct {
	rows  []mem.Access
	cols  *trace.Columns
	addrs []mem.Addr // cols' address column, once unpackAddrs has run
	meta  []byte     // cols' meta column, once unpackMeta has run
}

// len returns the number of accesses in b.
func (b *batch) len() int {
	if b.cols != nil {
		return b.cols.Len()
	}
	return len(b.rows)
}

// unpackAddrs readies the address column for watched and firstProbe.
func (b *batch) unpackAddrs() {
	if b.cols != nil {
		b.addrs = b.cols.Addrs()
	}
}

// unpackMeta readies the meta column for watched and kind.
func (b *batch) unpackMeta() {
	if b.cols != nil {
		b.meta = b.cols.Meta()
	}
}

// access returns access i in full, PC included: what a delivered event
// or an instrumentation callback observes.
func (b *batch) access(i int) mem.Access {
	if b.cols != nil {
		return b.cols.Access(i)
	}
	return b.rows[i]
}

// watched returns access i without its PC (a row keeps it): all Covers
// and an event filter read.
func (b *batch) watched(i int) mem.Access {
	if b.cols == nil {
		return b.rows[i]
	}
	m := b.meta[i]
	return mem.Access{Addr: b.addrs[i], Size: trace.MetaSize(m), Kind: trace.MetaKind(m)}
}

// kind returns access i's kind.
func (b *batch) kind(i int) mem.Kind {
	if b.cols == nil {
		return b.rows[i].Kind
	}
	return trace.MetaKind(b.meta[i])
}

// firstProbe returns the index of the first access in [i, end) that f
// passes, or end.
func (b *batch) firstProbe(f *watchFilter, i, end int) int {
	if b.cols == nil {
		return i + firstProbeRow(f.bits, f.mask, b.rows[i:end])
	}
	return i + firstProbeAddr(f.bits, f.mask, b.addrs[i:end])
}
