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
// One engine executes each batch in segments separated by profiling
// events, instead of dispatching a closure per access. A batch is rows
// (Run, Execute) or columns (ExecuteColumns, as wire v4 frames decode),
// read through one view (batch), the only code that knows the layout;
// the dispatch loop and each kind of segment exist once:
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
// counters, samples, traps and handler-observed state, whichever form
// the batches take. See DESIGN.md "Batched execution engine" for the
// invariants.
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

// Run executes the stream to exhaustion on the batched engine: its
// batches through Execute, then Finish. It may be called once per
// machine.
func (m *Machine) Run(r trace.Reader) error {
	if err := trace.EachBatch(context.TODO(), r, m.Execute); err != nil {
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
func (m *Machine) Execute(rows []mem.Access) { m.execute(batch{rows: rows}) }

// ExecuteColumns runs one batch held in columnar form through the
// batched engine — the vectorized form of Execute for streams that
// arrive as wire v4 column frames. Results are bit-identical to
// Execute over the materialized accesses (the differential tests pin
// this): it is the same engine, reading the batch's columns instead of
// its rows, and event-free stretches never materialize a mem.Access at
// all — a free run is a counter add, and an AllAccesses sampling
// segment jumps straight from the PMU's headroom to the overflowing
// index. Accesses are reconstructed from the columns only where an
// event can observe them, and a column still packed
// (wire.DecodeColumnsInto) is unpacked only when the engine first reads
// it: a watched segment reads the address column, a filter pass the
// meta column, an event all three. A batch at a long period with no
// watchpoint armed and no overflow unpacks nothing.
// Like Execute, call once per batch in order, then Finish; not safe for
// concurrent use.
func (m *Machine) ExecuteColumns(cols *trace.Columns) { m.execute(batch{cols: cols}) }

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

// execute runs one batch, in either form, through the segmented fast
// path.
func (m *Machine) execute(b batch) {
	n := b.len()
	if m.instr != nil {
		// Exhaustive tools observe every access, so there is nothing to
		// skip (this is exactly the asymmetry the paper measures).
		for i := range n {
			m.deliver(b.access(i), m.drs != nil)
		}
		return
	}
	for i := 0; i < n; {
		switch {
		case m.drs != nil && m.drs.AnyArmed():
			i = m.runWatched(&b, i)
		case m.pmu != nil:
			i = m.runSampling(&b, i)
		default:
			// Free run: no profiling hardware can observe these accesses.
			m.skip(uint64(n-i), 0)
			i = n
		}
	}
}

// runSampling advances through b from i with no watchpoint armed: the
// only possible event is a PMU overflow, whose position is known in
// advance from the counter's headroom. Everything before it is a bulk
// counter advance; the delivering access runs through the precise Tick
// path. For AllAccesses the overflow index comes straight from the
// headroom with no per-access work; filtered events read each access's
// kind. Returns the index after the last executed access.
func (m *Machine) runSampling(b *batch, i int) int {
	n := b.len()
	ev := m.pmu.Config().Event

	// Find j, the index of the access that overflows the counter (the
	// (Headroom+1)-th qualifying access), or n if no overflow falls
	// inside the batch; qual counts qualifying accesses in [i, j).
	j := n
	var qual uint64
	if ev == pmu.AllAccesses {
		j = m.segmentEnd(i, n)
		qual = uint64(j - i)
	} else {
		h := m.pmu.Headroom()
		b.unpackMeta()
		for k := i; k < n; k++ {
			if ev.Matches(mem.Access{Kind: b.kind(k)}) {
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
	// Access j overflows: deliver precisely, then let the dispatcher
	// re-evaluate (the handler may have armed watchpoints).
	m.deliver(b.access(j), false)
	return j + 1
}

// runWatched advances through b from i with at least one watchpoint
// armed. When the sampler counts every access (or there is none), only
// a watchpoint hit or the overflow — headroom accesses ahead — can be an
// event, so the segment probes each address's filter bit alone
// (scanWatched). Filtered events need each access's kind: those
// accesses are checked one by one, PMU counting staying a local pending
// advance flushed before any event delivery. Returns the index after
// the last executed access.
func (m *Machine) runWatched(b *batch, i int) int {
	wps := m.filter.sync(m.drs)
	if m.pmu == nil || m.pmu.Config().Event == pmu.AllAccesses {
		return m.scanWatched(b, i, wps)
	}
	n := b.len()
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event
	var qual uint64 // qualifying accesses among the event-free [start, i)
	start := i
	b.unpackAddrs()
	b.unpackMeta()
	for ; i < n; i++ {
		a := b.watched(i)
		hit := m.filter.passes(a) && coversAny(wps, a)
		matches := ev.Matches(a)
		if hit || (matches && qual == h) {
			m.skip(uint64(i-start), qual)
			m.deliver(b.access(i), hit)
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
// none in this batch. An access the filter passes is checked without its
// PC, so a false positive leaves a packed PC column packed.
func (m *Machine) scanWatched(b *batch, i int, wps []debugreg.Watchpoint) int {
	n := b.len()
	end := m.segmentEnd(i, n)
	j, hit := end, false
	b.unpackAddrs()
	k := b.firstProbe(&m.filter, i, end)
	if k < end {
		b.unpackMeta()
	}
	for ; k < end; k = b.firstProbe(&m.filter, k+1, end) {
		if coversAny(wps, b.watched(k)) {
			j, hit = k, true
			break
		}
	}
	m.skip(uint64(j-i), uint64(j-i))
	if j == n {
		return n
	}
	// Access j traps, overflows, or both: deliver precisely, then
	// re-dispatch (the armed set or period changed). The overflow index
	// was not scanned.
	a := b.access(j)
	m.deliver(a, hit || coversAny(wps, a))
	return j + 1
}

// segmentEnd is where a segment over [i, n) that the sampler counts in
// full stops: the overflowing index, headroom accesses ahead, or n.
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

// deliver executes a, the access a segment ends on (or, instrumented,
// every access), with the precise sequence of RunReference: it calls
// the instrumentation, traps when hit, then ticks the sampler. Every
// earlier access has been flushed by skip, so handlers read exact
// counter values.
func (m *Machine) deliver(a mem.Access, hit bool) {
	m.accessIndex = m.executed
	m.account.Accesses++
	if m.instr != nil {
		m.account.Instrumented++
		m.instr(m.executed, a)
	}
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
