package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/cpumodel"
	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/pmu"
)

// Checkpoint format ("RDXC", version 1, big-endian):
//
//	magic    [4]byte "RDXC"
//	version  u8
//	config   fixed-width field sequence (see encodeConfig)
//	rng      u64 splitmix64 state
//	counters seenFull, cold, samples, armed, dropped, evicted,
//	         duplicate, traps (u64 each), finished (u8)
//	slots    u64 count, then {block, usePC, c0} u64 triples
//	times    u64 count + u64 values
//	pcs      u64 count + {usePC, reusePC} u64 pairs
//	censored / endCensored  u64 count + u64 values
//	pmu      pmu.State fields (SkidLeft as two's-complement u64)
//	drs      u64 slot count, {addr u64, width u8, kind u8, tag u64} per
//	         slot, armed bitmap (u8 per slot), traps, arms
//	machine  presence u8; if 1: accessIndex, executed, account
//	         (5 cost constants + 5 event counters, u64 each)
//
// Every field the profiler's future behaviour depends on is carried
// bit-exactly (floats via IEEE-754 bits), which is what makes
// checkpoint → restore → continue indistinguishable from an
// uninterrupted run. Decoding is defensive: slice counts are validated
// against the bytes actually remaining, so corrupt or adversarial input
// fails fast instead of over-allocating.

var checkpointMagic = [4]byte{'R', 'D', 'X', 'C'}

// checkpointVersion is bumped whenever the serialized layout changes.
const checkpointVersion = 1

// Each watchpoint carries a slot record (block, usePC, c0) and a
// debug-register record (addr, width, kind, tag, armed flag) in a
// checkpoint: a blob can describe at most its remaining length divided
// by their sum.
const (
	ckptSlotBytes = 24
	ckptDRSBytes  = 19
)

// Checkpoint serializes the profiler's complete state — configuration,
// RNG positions, per-slot bookkeeping, observation logs, PMU and
// debug-register state, and (when a machine is attached) the machine's
// execution state — into a self-contained binary blob. Restoring it
// with RestoreProfiler and continuing the run produces results
// bit-identical to never having stopped.
//
// Checkpoint must not run concurrently with the machine executing
// accesses: call it between Execute batches, like Snapshot.
func (p *Profiler) Checkpoint() []byte {
	return p.CheckpointInto(nil)
}

// CheckpointInto is Checkpoint writing into dst's backing array (grown
// as needed), so periodic checkpointing can recycle blob buffers
// instead of allocating each one. The returned slice is the checkpoint;
// dst's previous contents are overwritten.
func (p *Profiler) CheckpointInto(dst []byte) []byte {
	e := ckptEncoder{buf: dst[:0]}
	e.bytes(checkpointMagic[:])
	e.u8(checkpointVersion)
	e.config(p.cfg)
	e.u64(p.rng.State())

	e.u64(p.seenFull)
	e.u64(p.cold)
	e.u64(p.samples)
	e.u64(p.armed)
	e.u64(p.dropped)
	e.u64(p.evicted)
	e.u64(p.duplicate)
	e.u64(p.traps)
	e.bool(p.finished)

	e.u64(uint64(len(p.slots)))
	for _, s := range p.slots {
		e.u64(uint64(s.block))
		e.u64(uint64(s.usePC))
		e.u64(s.c0)
	}
	e.u64slice(p.times)
	e.u64(uint64(len(p.pcs)))
	for _, k := range p.pcs {
		e.u64(uint64(k.UsePC))
		e.u64(uint64(k.ReusePC))
	}
	e.u64slice(p.censored)
	e.u64slice(p.endCensored)

	ps := p.pmuUnit.State()
	e.u64(ps.Count)
	e.u64(ps.AllCount)
	e.u64(ps.ToNext)
	e.u64(ps.Samples)
	e.u64(uint64(ps.SkidLeft))
	e.bool(ps.SkidArmed)
	e.u64(ps.RNG)

	ds := p.drs.State()
	e.u64(uint64(len(ds.Slots)))
	for _, w := range ds.Slots {
		e.u64(uint64(w.Addr))
		e.u8(w.Width)
		e.u8(uint8(w.Kind))
		e.u64(w.Tag)
	}
	for _, a := range ds.Armed {
		e.bool(a)
	}
	e.u64(ds.Traps)
	e.u64(ds.Arms)

	if p.machine != nil {
		e.bool(true)
		ms := p.machine.State()
		e.u64(ms.AccessIndex)
		e.u64(ms.Executed)
		e.u64(ms.Account.Costs.AccessCycles)
		e.u64(ms.Account.Costs.SampleCycles)
		e.u64(ms.Account.Costs.TrapCycles)
		e.u64(ms.Account.Costs.ArmCycles)
		e.u64(ms.Account.Costs.InstrumentCycles)
		e.u64(ms.Account.Accesses)
		e.u64(ms.Account.Samples)
		e.u64(ms.Account.Traps)
		e.u64(ms.Account.Arms)
		e.u64(ms.Account.Instrumented)
	} else {
		e.bool(false)
	}
	return e.buf
}

// RestoreProfiler reconstructs a profiler (and its machine, when one was
// attached at checkpoint time) from a Checkpoint blob. The returned
// machine, if non-nil, is wired to the profiler's PMU and debug
// registers and ready for further Execute calls. A checkpoint taken
// after Result (its finished flag set) is refused: there is nothing
// left to resume.
func RestoreProfiler(data []byte) (*Profiler, *cpu.Machine, error) {
	d := ckptDecoder{b: data}
	var magic [4]byte
	d.bytes(magic[:])
	if d.err == nil && magic != checkpointMagic {
		return nil, nil, fmt.Errorf("core: bad checkpoint magic %q, want %q", magic, checkpointMagic)
	}
	if v := d.u8(); d.err == nil && v != checkpointVersion {
		return nil, nil, fmt.Errorf("core: unsupported checkpoint version %d (have %d)", v, checkpointVersion)
	}
	cfg, err := d.config()
	if err != nil {
		return nil, nil, err
	}
	p, err := NewProfiler(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint config invalid: %w", err)
	}
	p.rng.Seed(d.u64())

	p.seenFull = d.u64()
	p.cold = d.u64()
	p.samples = d.u64()
	p.armed = d.u64()
	p.dropped = d.u64()
	p.evicted = d.u64()
	p.duplicate = d.u64()
	p.traps = d.u64()
	// Result may be taken once, and a finished profile's has been.
	if d.bool() && d.err == nil {
		return nil, nil, fmt.Errorf("core: checkpoint of a finished profile cannot be resumed")
	}

	nSlots := d.count(ckptSlotBytes)
	if d.err == nil && int(nSlots) != cfg.NumWatchpoints {
		return nil, nil, fmt.Errorf("core: checkpoint has %d slot records, config declares %d watchpoints", nSlots, cfg.NumWatchpoints)
	}
	for i := uint64(0); i < nSlots && d.err == nil; i++ {
		p.slots[i] = slotState{
			block: mem.Addr(d.u64()),
			usePC: mem.Addr(d.u64()),
			c0:    d.u64(),
		}
	}
	p.times = d.u64slice()
	nPCs := d.count(16)
	if d.err == nil && nPCs != uint64(len(p.times)) {
		return nil, nil, fmt.Errorf("core: checkpoint has %d PC pairs for %d reuse times", nPCs, len(p.times))
	}
	p.pcs = make([]PairKey, 0, nPCs)
	for i := uint64(0); i < nPCs && d.err == nil; i++ {
		p.pcs = append(p.pcs, PairKey{UsePC: mem.Addr(d.u64()), ReusePC: mem.Addr(d.u64())})
	}
	p.censored = d.u64slice()
	p.endCensored = d.u64slice()

	var ps pmu.State
	ps.Count = d.u64()
	ps.AllCount = d.u64()
	ps.ToNext = d.u64()
	ps.Samples = d.u64()
	ps.SkidLeft = int64(d.u64())
	ps.SkidArmed = d.bool()
	ps.RNG = d.u64()
	p.pmuUnit.SetState(ps)

	nDRS := d.count(ckptDRSBytes)
	if d.err == nil && int(nDRS) != cfg.NumWatchpoints {
		return nil, nil, fmt.Errorf("core: checkpoint has %d debug-register records, config declares %d watchpoints", nDRS, cfg.NumWatchpoints)
	}
	ds := debugreg.FileState{
		Slots: make([]debugreg.Watchpoint, nDRS),
		Armed: make([]bool, nDRS),
	}
	for i := range ds.Slots {
		if d.err != nil {
			break
		}
		ds.Slots[i] = debugreg.Watchpoint{
			Addr:  mem.Addr(d.u64()),
			Width: d.u8(),
			Kind:  debugreg.WatchKind(d.u8()),
			Tag:   d.u64(),
		}
	}
	for i := range ds.Armed {
		ds.Armed[i] = d.bool()
	}
	ds.Traps = d.u64()
	ds.Arms = d.u64()
	if d.err == nil {
		if err := p.drs.SetState(ds); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint debug-register state: %w", err)
		}
	}

	var machine *cpu.Machine
	if d.bool() && d.err == nil {
		var ms cpu.MachineState
		ms.AccessIndex = d.u64()
		ms.Executed = d.u64()
		ms.Account.Costs = cpumodel.Costs{
			AccessCycles:     d.u64(),
			SampleCycles:     d.u64(),
			TrapCycles:       d.u64(),
			ArmCycles:        d.u64(),
			InstrumentCycles: d.u64(),
		}
		ms.Account.Accesses = d.u64()
		ms.Account.Samples = d.u64()
		ms.Account.Traps = d.u64()
		ms.Account.Arms = d.u64()
		ms.Account.Instrumented = d.u64()
		if d.err == nil {
			machine = p.NewMachine(ms.Account.Costs)
			machine.SetState(ms)
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if len(d.b) != 0 {
		return nil, nil, fmt.Errorf("core: %d trailing bytes after checkpoint", len(d.b))
	}
	return p, machine, nil
}

// ckptEncoder appends big-endian fixed-width fields to a buffer.
type ckptEncoder struct {
	buf []byte
}

func (e *ckptEncoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *ckptEncoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *ckptEncoder) u64(v uint64)   { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *ckptEncoder) f64(v float64)  { e.u64(math.Float64bits(v)) }

func (e *ckptEncoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *ckptEncoder) u64slice(s []uint64) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u64(v)
	}
}

func (e *ckptEncoder) config(c Config) {
	e.u64(c.SamplePeriod)
	e.bool(c.RandomizePeriod)
	e.u64(uint64(c.NumWatchpoints))
	e.u8(c.WatchWidth)
	e.u8(uint8(c.Granularity))
	e.u64(uint64(c.Replacement))
	e.f64(c.ReplaceProb)
	e.u8(uint8(c.Event))
	e.u64(uint64(c.Skid))
	e.bool(c.ConvertDistances)
	e.bool(c.BiasCorrection)
	e.u64(c.Seed)
}

// ckptDecoder consumes fields from a buffer, latching the first error;
// subsequent reads return zero values so callers can decode a whole
// record and check d.err once.
type ckptDecoder struct {
	b   []byte
	err error
}

func (d *ckptDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: checkpoint truncated")
	}
}

func (d *ckptDecoder) bytes(dst []byte) {
	if d.err != nil {
		return
	}
	if len(d.b) < len(dst) {
		d.fail()
		return
	}
	copy(dst, d.b[:len(dst)])
	d.b = d.b[len(dst):]
}

func (d *ckptDecoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *ckptDecoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *ckptDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *ckptDecoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("core: checkpoint corrupt: invalid boolean")
		}
		return false
	}
}

// count reads a slice length and validates it against the bytes actually
// remaining (elemSize per element), so a corrupt length can never
// trigger a huge allocation.
func (d *ckptDecoder) count(elemSize int) uint64 {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b))/uint64(elemSize) {
		d.err = fmt.Errorf("core: checkpoint corrupt: count %d exceeds remaining data", n)
		return 0
	}
	return n
}

func (d *ckptDecoder) u64slice() []uint64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = d.u64()
	}
	return s
}

func (d *ckptDecoder) config() (Config, error) {
	var c Config
	c.SamplePeriod = d.u64()
	c.RandomizePeriod = d.bool()
	nwp := d.u64()
	c.WatchWidth = d.u8()
	c.Granularity = mem.Granularity(d.u8())
	c.Replacement = ReplacementPolicy(d.u64())
	c.ReplaceProb = d.f64()
	c.Event = pmu.EventSelect(d.u8())
	c.Skid = int(d.u64())
	c.ConvertDistances = d.bool()
	c.BiasCorrection = d.bool()
	c.Seed = d.u64()
	if d.err != nil {
		return Config{}, d.err
	}
	// Checked against the bytes left before NewProfiler sizes its slots
	// from it.
	if nwp == 0 || nwp > uint64(len(d.b))/(ckptSlotBytes+ckptDRSBytes) {
		return Config{}, fmt.Errorf("core: checkpoint corrupt: %d watchpoints", nwp)
	}
	c.NumWatchpoints = int(nwp)
	return c, nil
}
