package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/debugreg"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// event is one handler-observed occurrence, logged with everything a
// profiler could read at delivery time. The differential tests require
// the batched engine to reproduce the reference loop's event log exactly.
type event struct {
	kind  string // "sample" | "trap"
	index uint64 // machine.AccessIndex() at delivery
	addr  mem.Addr
	count uint64 // PMU Count() observed inside the handler
	slot  int
}

// rdxLike wires a PMU and debug-register file the way the RDX profiler
// does — samples arm watchpoints, traps disarm them — so the machine's
// armed/unarmed segments alternate under test.
type rdxLike struct {
	m      *Machine
	p      *pmu.PMU
	f      *debugreg.File
	events []event
	watch  debugreg.WatchKind // kind of the watchpoints samples arm
}

func newRDXLike(cfg pmu.Config, slots int, costs cpumodel.Costs) *rdxLike {
	r := &rdxLike{}
	r.f = debugreg.NewFile(slots, func(t debugreg.Trap) {
		r.events = append(r.events, event{
			kind:  "trap",
			index: r.m.AccessIndex(),
			addr:  t.Access.Addr,
			count: r.p.Count(),
			slot:  t.Slot,
		})
		r.f.Disarm(t.Slot)
	})
	r.p = pmu.New(cfg, func(s pmu.Sample) {
		r.events = append(r.events, event{
			kind:  "sample",
			index: r.m.AccessIndex(),
			addr:  s.Access.Addr,
			count: s.Count,
		})
		if slot := r.f.FreeSlot(); slot >= 0 {
			if err := r.f.Arm(slot, s.Access.Addr, 8, r.watch, s.Count); err != nil {
				panic(err)
			}
		}
	})
	r.m = New(costs, WithPMU(r.p), WithDebugRegisters(r.f))
	return r
}

// randomTrace builds a mixed load/store trace over a small region so
// that watchpoints trap frequently.
func randomTrace(seed uint64, n int, region uint64) []mem.Access {
	rng := stats.NewRNG(seed)
	accs := make([]mem.Access, n)
	for i := range accs {
		kind := mem.Load
		if rng.Uint64n(3) == 0 {
			kind = mem.Store
		}
		accs[i] = mem.Access{
			Addr: mem.Addr(rng.Uint64n(region) * 4),
			PC:   mem.Addr(0x400000 + rng.Uint64n(64)*4),
			Size: 4,
			Kind: kind,
		}
	}
	return accs
}

func TestBatchedEngineMatchesReference(t *testing.T) {
	costs := cpumodel.Default()
	sizes := []int{0, 1, 17, trace.DefaultBatchSize - 1, trace.DefaultBatchSize, trace.DefaultBatchSize + 1, 3*trace.DefaultBatchSize + 5}
	cfgs := []pmu.Config{
		{Event: pmu.AllAccesses, Period: 100, Seed: 7},
		{Event: pmu.AllAccesses, Period: 100, Randomize: true, Seed: 7},
		{Event: pmu.AllAccesses, Period: 64, Randomize: true, Skid: 5, Seed: 3},
		{Event: pmu.LoadsOnly, Period: 50, Randomize: true, Seed: 11},
		{Event: pmu.StoresOnly, Period: 30, Skid: 2, Seed: 5},
		{Event: pmu.AllAccesses, Period: 1, Seed: 9},
		{Event: pmu.AllAccesses, Period: 0, Seed: 1}, // counting mode: no samples
	}
	for _, n := range sizes {
		for ci, cfg := range cfgs {
			name := fmt.Sprintf("n=%d/cfg=%d", n, ci)
			t.Run(name, func(t *testing.T) {
				accs := randomTrace(uint64(n)*31+uint64(ci), n, 96)

				fast := newRDXLike(cfg, 4, costs)
				if err := fast.m.Run(trace.FromSlice(accs)); err != nil {
					t.Fatal(err)
				}
				ref := newRDXLike(cfg, 4, costs)
				if err := ref.m.RunReference(trace.FromSlice(accs)); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(fast.events, ref.events) {
					t.Fatalf("event logs diverge:\nfast %d events\nref  %d events\nfast=%v\nref=%v",
						len(fast.events), len(ref.events), head(fast.events), head(ref.events))
				}
				if !reflect.DeepEqual(fast.m.Account(), ref.m.Account()) {
					t.Fatalf("accounts diverge:\nfast=%+v\nref =%+v", fast.m.Account(), ref.m.Account())
				}
				if fast.p.Count() != ref.p.Count() || fast.p.AllCount() != ref.p.AllCount() || fast.p.Samples() != ref.p.Samples() {
					t.Fatalf("PMU counters diverge: fast=(%d,%d,%d) ref=(%d,%d,%d)",
						fast.p.Count(), fast.p.AllCount(), fast.p.Samples(),
						ref.p.Count(), ref.p.AllCount(), ref.p.Samples())
				}
				if fast.f.Traps() != ref.f.Traps() || fast.f.Arms() != ref.f.Arms() {
					t.Fatalf("debugreg counters diverge")
				}
				if fast.m.AccessIndex() != ref.m.AccessIndex() {
					t.Fatalf("final AccessIndex: fast=%d ref=%d", fast.m.AccessIndex(), ref.m.AccessIndex())
				}
			})
		}
	}
}

// TestIncrementalExecuteMatchesRun drives the machine with Execute over
// irregular batch boundaries (including tiny and empty batches, the
// shapes a network session delivers) and requires results bit-identical
// to a single Run over the same stream.
func TestIncrementalExecuteMatchesRun(t *testing.T) {
	costs := cpumodel.Default()
	cfg := pmu.Config{Event: pmu.AllAccesses, Period: 64, Randomize: true, Seed: 13}
	accs := randomTrace(99, 30011, 96)

	whole := newRDXLike(cfg, 4, costs)
	if err := whole.m.Run(trace.FromSlice(accs)); err != nil {
		t.Fatal(err)
	}

	inc := newRDXLike(cfg, 4, costs)
	rng := stats.NewRNG(5)
	for pos := 0; pos < len(accs); {
		n := int(rng.Uint64n(700)) // 0 is a legal (no-op) batch
		if pos+n > len(accs) {
			n = len(accs) - pos
		}
		inc.m.Execute(accs[pos : pos+n])
		pos += n
	}
	inc.m.Finish()

	if !reflect.DeepEqual(whole.events, inc.events) {
		t.Fatalf("event logs diverge: whole %d events, incremental %d events",
			len(whole.events), len(inc.events))
	}
	if !reflect.DeepEqual(whole.m.Account(), inc.m.Account()) {
		t.Fatalf("accounts diverge:\nwhole=%+v\ninc  =%+v", whole.m.Account(), inc.m.Account())
	}
	if whole.p.Count() != inc.p.Count() || whole.p.Samples() != inc.p.Samples() {
		t.Fatalf("PMU counters diverge")
	}
	if whole.m.AccessIndex() != inc.m.AccessIndex() {
		t.Fatalf("final AccessIndex: whole=%d inc=%d", whole.m.AccessIndex(), inc.m.AccessIndex())
	}
}

func head(ev []event) []event {
	if len(ev) > 8 {
		return ev[:8]
	}
	return ev
}

// TestBatchedEngineManySlots exercises the >64-slot fallback path of the
// debug-register file under the batched engine.
func TestBatchedEngineManySlots(t *testing.T) {
	cfg := pmu.Config{Event: pmu.AllAccesses, Period: 20, Randomize: true, Seed: 2}
	accs := randomTrace(42, 20000, 64)
	fast := newRDXLike(cfg, 70, cpumodel.Default())
	if err := fast.m.Run(trace.FromSlice(accs)); err != nil {
		t.Fatal(err)
	}
	ref := newRDXLike(cfg, 70, cpumodel.Default())
	if err := ref.m.RunReference(trace.FromSlice(accs)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.events, ref.events) {
		t.Fatalf("event logs diverge with 70 slots")
	}
	if !reflect.DeepEqual(fast.m.Account(), ref.m.Account()) {
		t.Fatalf("accounts diverge with 70 slots")
	}
}

// TestBatchedEngineBareMachine checks the event-free fast path: a
// machine with no PMU and no debug registers must still count accesses.
func TestBatchedEngineBareMachine(t *testing.T) {
	const n = 10000
	m := New(cpumodel.Default())
	if err := m.Run(trace.Cyclic(0, 100, n)); err != nil {
		t.Fatal(err)
	}
	if got := m.Account().Accesses; got != n {
		t.Fatalf("accesses = %d, want %d", got, n)
	}
	if got := m.AccessIndex(); got != n-1 {
		t.Fatalf("AccessIndex = %d, want %d", got, n-1)
	}
}

// TestBatchedEngineInstrumented checks that instrumentation still sees
// every access, in order, with the right indices.
func TestBatchedEngineInstrumented(t *testing.T) {
	const n = 9000
	var got []uint64
	m := New(cpumodel.Default(), WithInstrumentation(func(idx uint64, a mem.Access) {
		got = append(got, idx)
	}))
	if err := m.Run(trace.Sequential(0, n, 8)); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("instrumented %d accesses, want %d", len(got), n)
	}
	for i, idx := range got {
		if idx != uint64(i) {
			t.Fatalf("instrumentation index %d = %d", i, idx)
		}
	}
	if m.Account().Instrumented != n {
		t.Fatalf("Instrumented = %d", m.Account().Instrumented)
	}
}
