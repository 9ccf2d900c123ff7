package cpu

import (
	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// ExecuteColumns runs one batch held in columnar form through the
// batched engine — the vectorized form of Execute for streams that
// arrive as wire v4 column frames. Results are bit-identical to
// Execute over the materialized accesses (the differential tests pin
// this): the engine walks the same segmented dispatch, but event-free
// stretches never materialize a mem.Access at all — a free run is a
// counter add, and an AllAccesses sampling segment jumps straight from
// the PMU's headroom to the overflowing index. Accesses are
// reconstructed from the columns only where an event can observe them,
// and a column still packed (wire.DecodeColumnsInto) is unpacked only
// when the engine first reads it: a watched segment reads the address
// column, a filter pass the meta column, an event all three. A batch
// at a long period with no watchpoint armed and no overflow unpacks
// nothing.
// Like Execute, call once per batch in order, then Finish; not safe for
// concurrent use.
func (m *Machine) ExecuteColumns(cols *trace.Columns) {
	n := cols.Len()
	if n == 0 {
		return
	}
	if m.instr != nil {
		m.runInstrumentedColumns(cols)
		return
	}
	i := 0
	for i < n {
		if m.drs != nil && m.drs.AnyArmed() {
			i = m.runWatchedColumns(cols, i)
			continue
		}
		if m.pmu != nil {
			i = m.runSamplingColumns(cols, i)
			continue
		}
		// Free run: no profiling hardware can observe these accesses.
		m.skip(uint64(n-i), 0)
		i = n
	}
}

// runInstrumentedColumns mirrors runInstrumented: exhaustive tools
// observe every access, so each one is materialized from the columns.
func (m *Machine) runInstrumentedColumns(cols *trace.Columns) {
	addrs, pcs, meta := cols.Addrs(), cols.PCs(), cols.Meta()
	for i := range cols.Len() {
		a := watchedAccess(addrs, meta, i)
		a.PC = pcs[i]
		m.accessIndex = m.executed
		m.account.Accesses++
		m.account.Instrumented++
		m.instr(m.executed, a)
		if m.drs != nil {
			if t := m.drs.Check(a); t > 0 {
				m.account.Traps += uint64(t)
			}
		}
		if m.pmu != nil {
			if m.pmu.Tick(a) {
				m.account.Samples++
			}
		}
		m.executed++
	}
}

// runSamplingColumns mirrors runSampling over columns. For AllAccesses
// the overflow index comes straight from the headroom with no per-value
// work; filtered events scan the meta column's kind bits. Only the
// overflowing access is materialized.
func (m *Machine) runSamplingColumns(cols *trace.Columns, i int) int {
	n := cols.Len()
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event

	j := n
	var qual uint64
	if ev == pmu.AllAccesses {
		if h == pmu.NoOverflow || uint64(n-i) <= h {
			qual = uint64(n - i)
		} else {
			j = i + int(h)
			qual = h
		}
	} else {
		meta := cols.Meta()
		for k := i; k < n; k++ {
			if ev.Matches(mem.Access{Kind: trace.MetaKind(meta[k])}) {
				if qual == h {
					j = k
					break
				}
				qual++
			}
		}
	}

	m.skip(uint64(j-i), qual)
	if j == n {
		return n
	}
	// cols[j] overflows: deliver precisely, then re-dispatch.
	m.deliver(cols.Access(j), false)
	return j + 1
}

// runWatchedColumns mirrors runWatched over columns. When the sampler
// counts every access (or there is none), only a watchpoint hit or the
// overflow — headroom accesses ahead — can be an event, so the segment
// probes the address column alone against the filter
// (scanWatchedColumns). Filtered events need each access's kind: the
// segment reads the address and meta columns access by access
// (watchedAccess), PMU counting staying a local pending advance flushed
// before any event delivery, and materializes only the access it
// delivers.
func (m *Machine) runWatchedColumns(cols *trace.Columns, i int) int {
	wps := m.filter.sync(m.drs)
	if m.pmu == nil || m.pmu.Config().Event == pmu.AllAccesses {
		return m.scanWatchedColumns(cols, i, wps)
	}
	n := cols.Len()
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event
	var qual uint64 // qualifying accesses among the event-free cols[start:i]
	start := i
	addrs, meta := cols.Addrs(), cols.Meta()
	for ; i < n; i++ {
		a := watchedAccess(addrs, meta, i)
		hit := m.filter.passes(a) && coversAny(wps, a)
		matches := ev.Matches(a)
		if hit || (matches && qual == h) {
			m.skip(uint64(i-start), qual)
			m.deliver(cols.Access(i), hit)
			return i + 1 // armed set / period changed: re-dispatch
		}
		if matches {
			qual++
		}
	}
	m.skip(uint64(n-start), qual)
	return n
}

// scanWatchedColumns is scanWatched over the address column. An access
// the filter passes is checked against the armed slots with its address
// and meta byte alone (watchedAccess), so a false positive leaves the PC
// column packed; only the access the segment ends on is materialized.
func (m *Machine) scanWatchedColumns(cols *trace.Columns, i int, wps []debugreg.Watchpoint) int {
	n := cols.Len()
	end := m.segmentEnd(i, n)
	j, hit := end, false
	if i < end {
		addrs := cols.Addrs()
		for k := i; k < end; k++ {
			k += firstProbeAddr(m.filter.bits, m.filter.mask, addrs[k:end])
			if k < end && coversAny(wps, watchedAccess(addrs, cols.Meta(), k)) {
				j, hit = k, true
				break
			}
		}
	}
	m.skip(uint64(j-i), uint64(j-i))
	if j == n {
		return n
	}
	a := cols.Access(j)
	m.deliver(a, hit || coversAny(wps, a)) // the overflow index was not scanned
	return j + 1
}

// watchedAccess is access k of the columns whose address and meta
// columns are addrs and meta, without its PC: all Covers and an event
// filter read.
func watchedAccess(addrs []mem.Addr, meta []byte, k int) mem.Access {
	return mem.Access{Addr: addrs[k], Size: trace.MetaSize(meta[k]), Kind: trace.MetaKind(meta[k])}
}
