package cpu

import (
	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// ExecuteColumns runs one batch held in columnar form through the
// batched engine — the vectorized form of Execute for streams that
// arrive as wire v3 column frames. Results are bit-identical to
// Execute over the materialized accesses (the differential tests pin
// this): the engine walks the same segmented dispatch, but event-free
// stretches never materialize a mem.Access at all — a free run is a
// counter add, and an AllAccesses sampling segment jumps straight from
// the PMU's headroom to the overflowing index. Accesses are
// reconstructed from the columns only where an event can observe them.
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
		m.account.Accesses += uint64(n - i)
		m.executed += uint64(n - i)
		i = n
	}
}

// runInstrumentedColumns mirrors runInstrumented: exhaustive tools
// observe every access, so each one is materialized from the columns.
func (m *Machine) runInstrumentedColumns(cols *trace.Columns) {
	n := cols.Len()
	for i := 0; i < n; i++ {
		a := cols.Access(i)
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
// work; filtered events scan the meta column's kind bits.
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
		for k := i; k < n; k++ {
			if ev.Matches(cols.Access(k)) {
				if qual == h {
					j = k
					break
				}
				qual++
			}
		}
	}

	m.pmu.Advance(uint64(j-i), qual)
	m.account.Accesses += uint64(j - i)
	m.executed += uint64(j - i)
	if j == n {
		return n
	}

	// cols[j] overflows: deliver precisely, then re-dispatch.
	m.accessIndex = m.executed
	m.account.Accesses++
	if m.pmu.Tick(cols.Access(j)) {
		m.account.Samples++
	}
	m.executed++
	return j + 1
}

// runWatchedColumns mirrors runWatched over columns. When the sampler
// counts every access (or there is none), only a watchpoint hit or the
// overflow — headroom accesses ahead — can be an event, so the segment
// scans the address column alone against the armed slots
// (screenWatchedColumns). Filtered events need each access's kind:
// those accesses are materialized one by one, PMU counting staying a
// local pending advance flushed before any event delivery.
func (m *Machine) runWatchedColumns(cols *trace.Columns, i int) int {
	n := cols.Len()

	m.slotScratch = m.drs.ArmedSlots(m.slotScratch[:0])
	wps := m.wpScratch[:0]
	for _, s := range m.slotScratch {
		wps = append(wps, m.drs.Slot(s))
	}
	m.wpScratch = wps

	if m.pmu == nil || m.pmu.Config().Event == pmu.AllAccesses {
		return m.screenWatchedColumns(cols, i, wps)
	}
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event
	var qual uint64 // pending bulk advance: i-start accesses, qual qualifying
	start := i
	for ; i < n; i++ {
		a := cols.Access(i)
		hit := coversAny(wps, a)
		matches := ev.Matches(a)
		if !hit && !(matches && qual == h) {
			if matches {
				qual++
			}
			m.account.Accesses++
			m.executed++
			continue
		}

		m.accessIndex = m.executed
		m.account.Accesses++
		m.pmu.Advance(uint64(i-start), qual)
		if hit {
			if t := m.drs.Check(a); t > 0 {
				m.account.Traps += uint64(t)
			}
		}
		if m.pmu.Tick(a) {
			m.account.Samples++
		}
		m.executed++
		return i + 1 // armed set / period changed: re-dispatch
	}
	m.pmu.Advance(uint64(n-start), qual)
	return n
}

// maxMetaSize is the largest access size a meta byte can hold
// (trace.MetaSize), so an access at addr touches at most [addr, addr+15).
const maxMetaSize = 0x0f

// addrScreen is one armed slot's address pre-screen: an access at addr
// can overlap the slot only if addr-lo < span, unsigned, so the window
// wraps around address 0 exactly as the addresses do. lo backs off from
// the slot's base by the widest access, so the screen passes every
// access Covers accepts, and Covers then decides each candidate exactly.
type addrScreen struct{ lo, span mem.Addr }

// screenWatchedColumns is runWatchedColumns for a sampler counting every
// access, or none. The event is the first screened candidate Covers
// confirms before the overflow index, else the overflow, else none in
// this batch.
func (m *Machine) screenWatchedColumns(cols *trace.Columns, i int, wps []debugreg.Watchpoint) int {
	n := cols.Len()
	end := n
	if m.pmu != nil {
		if h := m.pmu.Headroom(); h < uint64(n-i) {
			end = i + int(h)
		}
	}
	screens := m.screenScratch[:0]
	for _, wp := range wps {
		screens = append(screens, addrScreen{lo: wp.Addr - maxMetaSize, span: mem.Addr(wp.Width) + maxMetaSize})
	}
	m.screenScratch = screens

	j, hit := end, false
scan:
	for k, addr := range cols.Addrs[i:end] {
		for _, s := range screens {
			if addr-s.lo < s.span {
				if coversAny(wps, cols.Access(i+k)) {
					j, hit = i+k, true
					break scan
				}
				break
			}
		}
	}
	skipped := uint64(j - i)
	m.account.Accesses += skipped
	m.executed += skipped
	if m.pmu != nil {
		m.pmu.Advance(skipped, skipped)
	}
	if j == n {
		return n
	}

	// cols[j] traps, overflows, or both: deliver precisely, then
	// re-dispatch (the armed set or period changed).
	a := cols.Access(j)
	hit = hit || coversAny(wps, a) // the overflow index was not screened
	m.accessIndex = m.executed
	m.account.Accesses++
	if hit {
		if t := m.drs.Check(a); t > 0 {
			m.account.Traps += uint64(t)
		}
	}
	if m.pmu != nil && m.pmu.Tick(a) {
		m.account.Samples++
	}
	m.executed++
	return j + 1
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
