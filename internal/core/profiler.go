package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/cpumodel"
	"repro/internal/debugreg"
	"repro/internal/footprint"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runtimeFixedBytes models RDX's fixed memory footprint on a real
// system: the perf-event mmap ring buffer, the alternate signal stack
// and the profiler runtime (libmonitor-style preloaded agent). It is the
// dominant term of the paper's single-digit-percent memory overhead,
// since RDX's per-sample state is a few dozen bytes.
const runtimeFixedBytes = 4 << 20

// slotState is RDX's bookkeeping for one armed debug register.
type slotState struct {
	block mem.Addr // watched block (at Config.Granularity)
	usePC mem.Addr // PC of the sampled (use) access
	c0    uint64   // PMU access count captured when the sample arrived
}

// Profiler is one RDX profiling session. Create it with NewProfiler,
// obtain a wired machine via NewMachine, run the program, then call
// Result.
type Profiler struct {
	cfg Config
	rng *stats.RNG

	pmuUnit *pmu.PMU
	drs     *debugreg.File
	machine *cpu.Machine

	slots    []slotState
	seenFull uint64 // samples offered since the register file filled (reservoir clock)

	times       []uint64  // completed reuse-time observations, in accesses
	pcs         []PairKey // use→reuse code pair per completed observation
	censored    []uint64  // elapsed times of watchpoints evicted before reuse
	endCensored []uint64  // elapsed times of watchpoints still armed at end of run
	cold        uint64    // armed watchpoints never re-accessed
	samples     uint64    // PMU samples delivered
	armed       uint64    // samples that armed a watchpoint
	dropped     uint64    // samples dropped (policy or duplicate block)
	evicted     uint64    // armed watchpoints evicted before reuse
	duplicate   uint64    // samples whose block was already watched
	traps       uint64
	finished    bool
}

// NewProfiler validates cfg and returns a fresh profiling session.
func NewProfiler(cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Profiler{
		cfg:   cfg,
		rng:   stats.NewRNG(cfg.Seed ^ 0xfea7be47), // "featherweight" session salt
		slots: make([]slotState, cfg.NumWatchpoints),
	}
	p.drs = debugreg.NewFile(cfg.NumWatchpoints, p.onTrap)
	p.pmuUnit = pmu.New(pmu.Config{
		Event:     cfg.Event,
		Period:    cfg.SamplePeriod,
		Randomize: cfg.RandomizePeriod,
		Skid:      cfg.Skid,
		Seed:      cfg.Seed,
	}, p.onSample)
	return p, nil
}

// Config returns the configuration the profiler was created with.
func (p *Profiler) Config() Config { return p.cfg }

// NewMachine returns a simulated CPU with this profiler's PMU and debug
// registers attached, charging the given cost model. Each profiler
// drives exactly one machine.
func (p *Profiler) NewMachine(costs cpumodel.Costs) *cpu.Machine {
	p.machine = cpu.New(costs,
		cpu.WithPMU(p.pmuUnit),
		cpu.WithDebugRegisters(p.drs),
	)
	return p.machine
}

// onSample is the PMU overflow handler: it converts the sample into an
// armed watchpoint, applying the replacement policy when the register
// file is full.
func (p *Profiler) onSample(s pmu.Sample) {
	p.samples++
	block := p.cfg.Granularity.Block(s.Access.Addr)

	// A block already under watch would trap on itself-adjacent reuses
	// and double-count; skip such samples (rare at realistic periods).
	for i := 0; i < p.drs.NumSlots(); i++ {
		if p.drs.IsArmed(i) && p.slots[i].block == block {
			p.duplicate++
			p.dropped++
			return
		}
	}

	slot := p.drs.FreeSlot()
	if slot < 0 {
		k := uint64(p.drs.NumSlots())
		switch p.cfg.Replacement {
		case ReplaceNever:
			p.dropped++
			return
		case ReplaceHybrid:
			slot = 0
			p.evict(slot, s.Count)
		case ReplaceProbabilistic:
			// Constant-rate admission: high enough to keep arming
			// throughout the run, low enough that a watchpoint pending
			// for many periods usually survives to its reuse.
			if p.rng.Float64() >= p.cfg.ReplaceProb {
				p.dropped++
				return
			}
			slot = p.rng.Intn(p.drs.NumSlots())
			p.evict(slot, s.Count)
		case ReplaceAlways:
			// Every full-arrival evicts a uniform victim.
			slot = p.rng.Intn(p.drs.NumSlots())
			p.evict(slot, s.Count)
		case ReplaceReservoir:
			// Algorithm R over the stream of samples arriving while
			// full: admit the i-th such sample with probability
			// k/(i+k), evicting a uniform victim. This keeps the armed
			// set a uniform sample of sampled addresses and, because
			// the admission probability decays, lets long-pending
			// watchpoints survive long reuse intervals late in the run.
			p.seenFull++
			if p.rng.Uint64n(p.seenFull+k) >= k {
				p.dropped++
				return
			}
			slot = p.rng.Intn(p.drs.NumSlots())
			p.evict(slot, s.Count)
		}
	}

	// Watch the aligned WatchWidth-byte word containing the sampled
	// address (hardware cannot watch a whole cache line; reuse of the
	// watched word is taken as reuse of its block).
	width := p.cfg.WatchWidth
	if err := p.drs.Arm(slot, s.Access.Addr, width, debugreg.WatchReadWrite, s.Count); err != nil {
		// Unreachable with a validated config; surface loudly in tests.
		panic(fmt.Sprintf("core: arming watchpoint: %v", err))
	}
	p.slots[slot] = slotState{block: block, usePC: s.Access.PC, c0: s.Count}
	p.armed++
}

// evict records the censored observation of an armed slot that is about
// to be replaced: its block was watched for `now − c0` accesses without
// a reuse, so its reuse time is at least that (a right-censored sample
// in survival-analysis terms). Result redistributes this mass over the
// completed observations Kaplan-Meier-style, which removes the bias
// replacement would otherwise introduce against long reuse times.
func (p *Profiler) evict(slot int, now uint64) {
	p.evicted++
	if elapsed := now - p.slots[slot].c0; elapsed > 0 {
		p.censored = append(p.censored, elapsed)
	}
}

// onTrap is the debug-exception handler: the watched word was accessed
// again, so the elapsed PMU count is the sampled block's reuse time.
func (p *Profiler) onTrap(t debugreg.Trap) {
	p.traps++
	st := p.slots[t.Slot]
	// The machine checks watchpoints before ticking the PMU for the
	// triggering access, so Count() excludes it; +1 restores the
	// inclusive "counter read in the SIGTRAP handler" semantics.
	c1 := p.pmuUnit.Count() + 1
	if c1 > st.c0 {
		p.times = append(p.times, c1-st.c0)
		p.pcs = append(p.pcs, PairKey{UsePC: st.usePC, ReusePC: t.Access.PC})
	}
	p.drs.Disarm(t.Slot)
}

// Run profiles an access stream end to end with the given cost model and
// returns the result: RunContext with a context that is never
// cancelled.
func (p *Profiler) Run(r trace.Reader, costs cpumodel.Costs) (*Result, error) {
	return p.RunContext(context.Background(), r, costs)
}

// RunContext is Run honoring ctx: cancellation is checked at every
// batch boundary, so a profile of an unbounded (or merely long) stream
// returns promptly with ctx.Err() once the context is cancelled or its
// deadline passes. It drives the batched engine through the
// batch-invariant Execute/Finish pair.
func (p *Profiler) RunContext(ctx context.Context, r trace.Reader, costs cpumodel.Costs) (*Result, error) {
	m := p.NewMachine(costs)
	if err := trace.EachBatch(ctx, r, m.Execute); err != nil {
		return nil, err
	}
	m.Finish()
	return p.Result(), nil
}

// RunReference is Run on the retained per-access reference loop
// (cpu.Machine.RunReference). The differential tests assert it produces
// results bit-identical to Run for every configuration.
func (p *Profiler) RunReference(r trace.Reader, costs cpumodel.Costs) (*Result, error) {
	m := p.NewMachine(costs)
	if err := m.RunReference(r); err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// Result finalizes the session: still-armed watchpoints become cold
// (never reused) observations, reuse times are expanded into weighted
// histograms, and the footprint model converts times to distances.
// It may be called once. For intermediate results during a live run,
// use Snapshot, which does not finalize.
func (p *Profiler) Result() *Result {
	if p.finished {
		panic("core: Result called twice")
	}
	p.finished = true

	// Still-armed watchpoints never saw a reuse before the run ended:
	// the forward-sampling analogue of a cold (first-touch) access.
	// They double as right-censored observations at the trace boundary
	// — "reuse time at least E_end" — which the redistribution below
	// uses as the data-driven anchor deciding how much eviction-censored
	// mass resolves to cold.
	endCount := p.pmuUnit.Count()
	for i := 0; i < p.drs.NumSlots(); i++ {
		if p.drs.IsArmed(i) {
			p.cold++
			if elapsed := endCount - p.slots[i].c0; elapsed > 0 {
				p.endCensored = append(p.endCensored, elapsed)
			}
			p.drs.Disarm(i)
		}
	}
	return p.buildResult(p.cold, p.endCensored)
}

// Snapshot returns the result the session would report if the program
// ended now, without stopping it: still-armed watchpoints are projected
// to cold/end-censored observations (as Result does) but stay armed, no
// internal state is mutated, and profiling continues unaffected. It may
// be called any number of times — a live profiling service serves
// intermediate reuse-distance histograms this way.
//
// Snapshot must not run concurrently with the machine executing
// accesses: call it from the goroutine driving the machine, between
// Execute batches (or inside a Reader.Read, where the machine is
// quiescent).
func (p *Profiler) Snapshot() *Result {
	cold := p.cold
	endCensored := append([]uint64(nil), p.endCensored...)
	nowCount := p.pmuUnit.Count()
	for i := 0; i < p.drs.NumSlots(); i++ {
		if p.drs.IsArmed(i) {
			cold++
			if elapsed := nowCount - p.slots[i].c0; elapsed > 0 {
				endCensored = append(endCensored, elapsed)
			}
		}
	}
	return p.buildResult(cold, endCensored)
}

// buildResult expands the session's observations into the weighted
// histograms, attribution and overhead accounting of a Result. It reads
// but never mutates profiler state; cold and endCensored are passed
// explicitly because Result and Snapshot project still-armed watchpoints
// differently (permanently vs speculatively).
func (p *Profiler) buildResult(cold uint64, endCensored []uint64) *Result {
	accesses := uint64(0)
	if p.machine != nil {
		accesses = p.machine.Account().Accesses
	}

	// Each completed observation starts with unit weight; censored
	// observations (evicted or end-of-run) redistribute theirs over the
	// observations longer than their censoring point, with the
	// unredistributable remainder reported as cold.
	weights := make([]float64, len(p.times))
	for i := range weights {
		weights[i] = 1
	}
	times := p.times
	var coldWeight float64
	if p.cfg.BiasCorrection {
		coldWeight = redistributeCensored(p.times, p.censored, endCensored, weights)
	} else {
		coldWeight = float64(cold)
	}

	// Normalize total mass to the program's access count: each retained
	// observation nominally represents one sampling period, but samples
	// dropped while the register file was full are unrepresented, so the
	// raw total undershoots. Scaling to the access count keeps
	// per-stream proportions (drops are independent of a sample's own
	// reuse time) and makes histogram mass comparable across threads and
	// runs.
	unitTotal := coldWeight
	for _, w := range weights {
		unitTotal += w
	}
	weightScale := float64(p.cfg.SamplePeriod)
	if unitTotal > 0 && accesses > 0 {
		weightScale = float64(accesses) / unitTotal
	}
	for i := range weights {
		weights[i] *= weightScale
	}
	coldWeight *= weightScale

	timeHist := histogram.New()
	for i, t := range times {
		timeHist.Add(t, weights[i])
	}
	if coldWeight > 0 {
		timeHist.Add(histogram.Infinite, coldWeight)
	}

	est := footprint.NewWeightedEstimator(times, weights, coldWeight, accesses)

	distHist := histogram.New()
	for i, t := range times {
		if p.cfg.ConvertDistances {
			distHist.Add(est.Distance(t), weights[i])
		} else {
			distHist.Add(t, weights[i])
		}
	}
	if coldWeight > 0 {
		distHist.Add(histogram.Infinite, coldWeight)
	}

	dist := func(t uint64) uint64 { return t }
	if p.cfg.ConvertDistances {
		dist = est.Distance
	}

	res := &Result{
		Config:        p.cfg,
		Attribution:   buildAttribution(p.times, weights, p.pcs, dist),
		ReuseTime:     timeHist,
		ReuseDistance: distHist,
		Footprint:     est,
		Accesses:      accesses,
		Samples:       p.samples,
		ArmedSamples:  p.armed,
		Traps:         p.traps,
		ReusePairs:    uint64(len(p.times)),
		ColdSamples:   cold,
		Dropped:       p.dropped,
		Evicted:       p.evicted,
		Duplicates:    p.duplicate,
	}
	if p.machine != nil {
		// Copy the account: the machine's own keeps accruing after a
		// mid-run Snapshot, and a snapshot that a subscriber reads
		// asynchronously (Session.Watch) must be frozen at its boundary.
		acct := *p.machine.Account()
		res.Account = &acct
	}
	res.StateBytes = p.StateBytes()
	return res
}

// StateBytes models RDX's current memory footprint: fixed runtime state
// plus the per-observation logs and per-slot bookkeeping. The four
// observation logs count by the observations they hold — times,
// censored and endCensored hold 8-byte values, pcs holds 16-byte
// use→reuse PC pairs — so the figure is a function of the profiling
// state alone: a restored or migrated profile reports what an
// uninterrupted one does. It is safe to call mid-run (the profiling
// service exposes it as a per-session gauge), from the goroutine
// driving the machine.
func (p *Profiler) StateBytes() uint64 {
	perSlot := uint64(len(p.slots)) * 24 // block, usePC, c0
	logs := uint64(len(p.times)+len(p.censored)+len(p.endCensored))*8 +
		uint64(len(p.pcs))*16
	return runtimeFixedBytes + logs + perSlot
}

// redistributeCensored applies redistribute-to-the-right (the
// Kaplan-Meier estimator in redistribution form, Efron's convention) to
// the eviction-censored observations. The value line holds two kinds of
// observations: completed reuse times (destinations at finite
// distances) and end-of-run censored watchpoints (destinations that
// finally resolve to cold — a sample with no reuse before the end of
// the trace is the forward-sampling analogue of a first-touch). Each
// eviction-censored unit mass at E is spread proportionally over the
// observations of either kind with value greater than E; mass with no
// observation beyond it resolves to cold — nothing was ever seen to
// reuse after that long, and in the streaming programs where this case
// dominates, cold is the truth.
//
// Censoring points are processed in increasing order. Because the
// candidate suffixes {value > E} are nested, every member of a suffix
// has accumulated exactly the multipliers of all earlier censoring
// points, so a single running multiplier gives each redistribution's
// denominator in O((n+c)·log n) total.
//
// It is a pure function of its inputs (weights is the only output
// besides the returned cold weight; censoredIn and endCensored are
// never mutated), so Result and Snapshot can share it.
func redistributeCensored(times, censoredIn, endCensored []uint64, weights []float64) (coldWeight float64) {
	// Combined value line: completed observations (idx >= 0 into
	// weights) and end-censored observations (idx < 0 into endW).
	type obsRef struct {
		v   uint64
		idx int // >= 0: weights[idx]; < 0: endW[-idx-1]
	}
	endW := make([]float64, len(endCensored))
	for i := range endW {
		endW[i] = 1
	}
	line := make([]obsRef, 0, len(times)+len(endCensored))
	for i, t := range times {
		line = append(line, obsRef{v: t, idx: i})
	}
	for i, e := range endCensored {
		line = append(line, obsRef{v: e, idx: -i - 1})
	}
	sort.Slice(line, func(a, b int) bool { return line[a].v < line[b].v })

	censored := append([]uint64(nil), censoredIn...)
	sort.Slice(censored, func(a, b int) bool { return censored[a] < censored[b] })

	// suffixCount(E) = observations (either kind) with value > E.
	suffixCount := func(e uint64) int {
		lo := sort.Search(len(line), func(k int) bool { return line[k].v > e })
		return len(line) - lo
	}

	mult := 1.0
	pos := 0 // next observation (in value order) to finalize
	finalize := func(upTo uint64) {
		for pos < len(line) && line[pos].v <= upTo {
			if i := line[pos].idx; i >= 0 {
				weights[i] *= mult
			} else {
				endW[-i-1] *= mult
			}
			pos++
		}
	}
	for _, e := range censored {
		// Observations at or below e keep the multiplier accumulated so
		// far; later censored mass never reaches them.
		finalize(e)
		base := float64(suffixCount(e))
		if base == 0 {
			coldWeight++
			continue
		}
		mult *= 1 + 1/(mult*base)
	}
	finalize(histogram.Infinite - 1)
	for _, w := range endW {
		coldWeight += w
	}
	return coldWeight
}

// Result is the output of one RDX profiling session.
type Result struct {
	// Config echoes the configuration that produced this result.
	Config Config
	// ReuseTime is the weighted reuse-time histogram (each observation
	// weighted by the sampling period, cold samples in the Inf bucket).
	ReuseTime *histogram.Histogram
	// ReuseDistance is the reuse-distance histogram after footprint
	// conversion (or raw times when ConvertDistances is false).
	ReuseDistance *histogram.Histogram
	// Footprint is the fitted average-footprint model, usable for
	// cache-size what-if analysis.
	Footprint *footprint.Estimator
	// Attribution breaks the profile down by use→reuse code pair,
	// ordered by descending carried weight.
	Attribution Attribution
	// Account is the cycle account of the profiled run (nil when the
	// profiler was driven without a machine).
	Account *cpumodel.Account

	Accesses     uint64 // accesses executed by the program
	Samples      uint64 // PMU samples delivered
	ArmedSamples uint64 // samples that armed a watchpoint
	Traps        uint64 // watchpoint traps delivered
	ReusePairs   uint64 // completed use→reuse measurements
	ColdSamples  uint64 // armed watchpoints never reused
	Dropped      uint64 // samples dropped by policy or duplication
	Evicted      uint64 // watchpoints evicted before their reuse
	Duplicates   uint64 // samples whose block was already watched
	StateBytes   uint64 // modelled profiler memory footprint
}

// TimeOverhead returns the modelled fractional runtime overhead
// (0.05 = 5%), or 0 if no machine account is attached.
func (r *Result) TimeOverhead() float64 {
	if r.Account == nil {
		return 0
	}
	return r.Account.Overhead()
}

// MemOverhead returns the modelled memory overhead relative to the
// profiled application's footprint in bytes.
func (r *Result) MemOverhead(appFootprintBytes uint64) float64 {
	if appFootprintBytes == 0 {
		return 0
	}
	return float64(r.StateBytes) / float64(appFootprintBytes)
}
