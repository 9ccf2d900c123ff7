// Package cpu ties the simulated hardware together: a Machine executes a
// memory-access stream, driving the PMU (overflow sampling) and the debug
// registers (watchpoint traps), and charging the cycle cost model for the
// base access plus every profiling event it induces.
//
// Profilers never see the raw stream — exactly like a real
// no-instrumentation tool, they interact with the program only through
// PMU samples and watchpoint traps raised by the machine. The exhaustive
// ground-truth tool instead registers a per-access instrumentation
// callback, paying the corresponding modelled cost, which is precisely
// the asymmetry the paper's overhead comparison measures.
//
// # Batched execution engine
//
// Run reads the stream in []mem.Access batches (trace.EachBatch, which
// lends in-memory traces without copying them) and executes each batch
// in segments separated by profiling events, instead of dispatching a
// closure per access:
//
//   - with no watchpoint armed, the PMU's Headroom (qualifying events
//     until the next overflow) bounds a bulk Advance over the whole
//     event-free stretch — accesses between samples cost a counter add,
//     not a call;
//   - with watchpoints armed and the sampler counting every access (or
//     no sampler), only addresses are scanned, up to the overflow index,
//     with one probe each into the watch filter: a bitmap, hashed on the
//     8-byte block, holding every block an access that some armed slot
//     can trap may start in. Covers decides each access whose bit is set
//     exactly, and the stretch before the first confirmed trap is one
//     bulk Advance;
//   - with watchpoints armed and a filtered event (loads or stores
//     only), each access is probed and, when its bit is set, checked
//     against the armed slots, PMU counting accumulated and flushed
//     immediately before any trap or sample is delivered, so handlers
//     observe exact counter values;
//   - after any delivered event the segment ends, because handlers may
//     arm or disarm watchpoints and the PMU re-draws its next period.
//     The machine keeps the filter across segments; each segment
//     compares the slots with it and re-marks only the ones that changed.
//
// The engine is bit-exact with the retained per-access reference loop
// (RunReference): same stream and configuration produce identical
// counters, samples, traps and handler-observed state. See DESIGN.md
// "Batched execution engine" for the invariants.
package cpu

import (
	"context"

	"repro/internal/cpumodel"
	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// Instrument is a per-access callback used by exhaustive
// (instrumentation-based) tools. Each invocation is charged
// Costs.InstrumentCycles.
type Instrument func(index uint64, a mem.Access)

// Machine is one simulated core executing one program (access stream).
type Machine struct {
	pmu     *pmu.PMU
	drs     *debugreg.File
	account *cpumodel.Account
	instr   Instrument

	accessIndex uint64 // index of the access currently executing
	executed    uint64 // accesses executed so far (index of the next one)
	running     bool

	filter watchFilter // the armed slots and their filter, kept across segments
}

// Option configures a Machine.
type Option func(*Machine)

// WithPMU attaches a simulated PMU. The machine ticks it on every access.
func WithPMU(p *pmu.PMU) Option {
	return func(m *Machine) { m.pmu = p }
}

// WithDebugRegisters attaches a debug-register file. The machine checks
// every access against it and charges trap cost for each delivered trap.
func WithDebugRegisters(f *debugreg.File) Option {
	return func(m *Machine) { m.drs = f }
}

// WithInstrumentation attaches an exhaustive per-access callback (the
// ground-truth tool's analysis routine).
func WithInstrumentation(fn Instrument) Option {
	return func(m *Machine) { m.instr = fn }
}

// New builds a machine charging the given cost table.
func New(costs cpumodel.Costs, opts ...Option) *Machine {
	m := &Machine{account: cpumodel.NewAccount(costs)}
	for _, o := range opts {
		o(m)
	}
	return m
}

// PMU returns the attached PMU (nil if none).
func (m *Machine) PMU() *pmu.PMU { return m.pmu }

// Account returns the cycle account for this machine's run.
func (m *Machine) Account() *cpumodel.Account { return m.account }

// AccessIndex returns the global index of the access currently executing
// (valid inside PMU/trap/instrumentation callbacks), or of the last
// executed access after Run returns. Between profiling events the
// batched engine does not maintain it per access — no callback can
// observe it there.
func (m *Machine) AccessIndex() uint64 { return m.accessIndex }

// Run executes the stream to exhaustion on the batched engine. It may be
// called once per machine.
func (m *Machine) Run(r trace.Reader) error {
	m.running = true
	defer func() { m.running = false }()
	if err := trace.EachBatch(context.TODO(), r, m.executeBatch); err != nil {
		return err
	}
	m.finish()
	return nil
}

// Execute runs one batch of accesses through the batched engine. It is
// the incremental form of Run for programs whose accesses arrive over
// time (e.g. streamed over a network session): call Execute for each
// batch in order, then Finish exactly once after the last. Results are
// bit-identical to a single Run over the concatenated batches —
// execution state (PMU headroom, pending bulk advances) carries across
// calls. Not safe for concurrent use; all calls must come from one
// goroutine.
func (m *Machine) Execute(batch []mem.Access) {
	if len(batch) == 0 {
		return
	}
	m.executeBatch(batch)
}

// Finish settles end-of-run accounting after the last Execute call.
// Run and RunReference call it internally; only incremental (Execute)
// drivers call it directly.
func (m *Machine) Finish() { m.finish() }

// MachineState is the machine's own mutable execution state, exported
// for lossless checkpoint/restore of an incremental (Execute-driven)
// run. The attached PMU and debug-register file carry their own state
// (pmu.State, debugreg.FileState) and are restored separately.
type MachineState struct {
	AccessIndex uint64
	Executed    uint64
	Account     cpumodel.Account
}

// State captures the machine's execution state. The machine must be
// quiescent (between Execute calls).
func (m *Machine) State() MachineState {
	return MachineState{
		AccessIndex: m.accessIndex,
		Executed:    m.executed,
		Account:     *m.account,
	}
}

// SetState overwrites the machine's execution state with a previously
// captured one. Subsequent Execute calls continue bit-identically to the
// captured run, provided the attached PMU and debug registers were
// restored to matching states.
func (m *Machine) SetState(s MachineState) {
	m.accessIndex = s.AccessIndex
	m.executed = s.Executed
	*m.account = s.Account
}

// RunReference executes the stream with the pre-batching per-access
// loop: one closure dispatch, one full watchpoint check and one PMU tick
// per access. It is retained as the executable specification of the
// engine's semantics — the differential tests assert that Run and
// RunReference produce identical results — and as the baseline the
// engine benchmarks compare against.
func (m *Machine) RunReference(r trace.Reader) error {
	m.running = true
	defer func() { m.running = false }()
	err := trace.ForEach(r, func(a mem.Access) bool {
		m.accessIndex = m.executed
		m.account.Accesses++

		if m.instr != nil {
			m.account.Instrumented++
			m.instr(m.executed, a)
		}
		if m.drs != nil {
			if n := m.drs.Check(a); n > 0 {
				m.account.Traps += uint64(n)
			}
		}
		if m.pmu != nil {
			if m.pmu.Tick(a) {
				m.account.Samples++
			}
		}
		m.executed++
		return true
	})
	m.finish()
	return err
}

// finish settles end-of-run accounting shared by both execution paths.
// Arm cost is charged from the debug-register file's own tally so that
// profilers don't need to report it separately.
func (m *Machine) finish() {
	if m.executed > 0 {
		m.accessIndex = m.executed - 1
	}
	if m.drs != nil {
		m.account.Arms = m.drs.Arms()
	}
}

// executeBatch runs one batch through the segmented fast path.
func (m *Machine) executeBatch(batch []mem.Access) {
	if m.instr != nil {
		m.runInstrumented(batch)
		return
	}
	n := len(batch)
	i := 0
	for i < n {
		if m.drs != nil && m.drs.AnyArmed() {
			i = m.runWatched(batch, i)
			continue
		}
		if m.pmu != nil {
			i = m.runSampling(batch, i)
			continue
		}
		// Free run: no profiling hardware can observe these accesses.
		m.skip(uint64(n-i), 0)
		i = n
	}
}

// runInstrumented executes batch accesses through the full per-access
// path: exhaustive tools observe every access, so there is nothing to
// skip (this is exactly the asymmetry the paper measures).
func (m *Machine) runInstrumented(batch []mem.Access) {
	for _, a := range batch {
		m.accessIndex = m.executed
		m.account.Accesses++
		m.account.Instrumented++
		m.instr(m.executed, a)
		if m.drs != nil {
			if n := m.drs.Check(a); n > 0 {
				m.account.Traps += uint64(n)
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

// runSampling advances through batch[i:] with no watchpoint armed: the
// only possible event is a PMU overflow, whose position is known in
// advance from the counter's headroom. Everything before it is a bulk
// counter advance; the delivering access runs through the precise Tick
// path. Returns the index after the last executed access.
func (m *Machine) runSampling(batch []mem.Access, i int) int {
	n := len(batch)
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event

	// Find j, the index of the access that overflows the counter (the
	// (h+1)-th qualifying access), or n if no overflow falls inside the
	// batch; qual counts qualifying accesses in batch[i:j].
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
			if ev.Matches(batch[k]) {
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
	// batch[j] overflows: deliver precisely, then let the dispatcher
	// re-evaluate (the handler may have armed watchpoints).
	m.deliver(batch[j], false)
	return j + 1
}

// runWatched advances through batch[i:] with at least one watchpoint
// armed. When the sampler counts every access (or there is none), only
// a watchpoint hit or the overflow — headroom accesses ahead — can be an
// event, so the segment probes each address's filter bit alone
// (scanWatched). Filtered events need each access's kind: those
// accesses are checked one by one, PMU counting staying a local pending
// advance flushed before any event delivery. Returns the index after
// the last executed access.
func (m *Machine) runWatched(batch []mem.Access, i int) int {
	wps := m.filter.sync(m.drs)
	if m.pmu == nil || m.pmu.Config().Event == pmu.AllAccesses {
		return m.scanWatched(batch, i, wps)
	}
	n := len(batch)
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event
	var qual uint64 // qualifying accesses among the event-free batch[start:i]
	start := i
	for ; i < n; i++ {
		a := batch[i]
		hit := m.filter.passes(a) && coversAny(wps, a)
		matches := ev.Matches(a)
		if hit || (matches && qual == h) {
			m.skip(uint64(i-start), qual)
			m.deliver(a, hit)
			return i + 1 // armed set / period changed: re-dispatch
		}
		if matches {
			qual++
		}
	}
	m.skip(uint64(n-start), qual)
	return n
}

// scanWatched is runWatched for a sampler counting every access, or
// none. The event is the first access before the overflow index whose
// filter bit is set and which Covers confirms, else the overflow, else
// none in this batch.
func (m *Machine) scanWatched(batch []mem.Access, i int, wps []debugreg.Watchpoint) int {
	n := len(batch)
	end := m.segmentEnd(i, n)
	j, hit := end, false
	for k := i; k < end; k++ {
		k += firstProbeRow(m.filter.bits, m.filter.mask, batch[k:end])
		if k < end && coversAny(wps, batch[k]) {
			j, hit = k, true
			break
		}
	}
	m.skip(uint64(j-i), uint64(j-i))
	if j == n {
		return n
	}
	// batch[j] traps, overflows, or both: deliver precisely, then
	// re-dispatch (the armed set or period changed). The overflow index
	// was not scanned.
	m.deliver(batch[j], hit || coversAny(wps, batch[j]))
	return j + 1
}

// segmentEnd is where a scanned segment over [i, n) stops: the
// overflowing index, headroom accesses ahead, or n.
func (m *Machine) segmentEnd(i, n int) int {
	if m.pmu != nil {
		if h := m.pmu.Headroom(); h < uint64(n-i) {
			return i + int(h)
		}
	}
	return n
}

// skip bulk-executes k event-free accesses, qual of which the sampler
// counts.
func (m *Machine) skip(k, qual uint64) {
	m.account.Accesses += k
	m.executed += k
	if m.pmu != nil {
		m.pmu.Advance(k, qual)
	}
}

// deliver executes a, the access a segment ends on, with the precise
// check-then-tick sequence of RunReference: it traps when hit, then
// ticks the sampler. Every earlier access has been flushed by skip, so
// handlers read exact counter values.
func (m *Machine) deliver(a mem.Access, hit bool) {
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
}
