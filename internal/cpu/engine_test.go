package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
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

// wideEdgeTrace is edgeTrace with sizes over a row's whole uint8 range
// — a third each of 0, 1–15 and 16–255 bytes — so accesses reach armed
// watchpoints from up to 255 bytes below, across both ends of the
// address space.
func wideEdgeTrace(seed uint64, n int) []mem.Access {
	accs := edgeTrace(seed, n)
	rng := stats.NewRNG(^seed)
	for i := range accs {
		switch rng.Uint64n(3) {
		case 0:
			accs[i].Size = 0
		case 1:
			accs[i].Size = uint8(1 + rng.Uint64n(15))
		default:
			accs[i].Size = uint8(16 + rng.Uint64n(240))
		}
	}
	return accs
}

// TestBatchedEngineMatchesReference is the row form's differential
// gate: Run must reproduce RunReference bit-exactly for every trace
// length and PMU configuration, over a random trace and over
// wideEdgeTrace's address-space ends, arming read-write and write-only
// watchpoints.
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
			t.Run(fmt.Sprintf("n=%d/cfg=%d", n, ci), func(t *testing.T) {
				seed := uint64(n)*31 + uint64(ci)
				for _, tc := range []struct {
					name  string
					accs  []mem.Access
					watch debugreg.WatchKind
				}{
					{"random", randomTrace(seed, n, 96), debugreg.WatchReadWrite},
					{"edges", wideEdgeTrace(seed, n), debugreg.WatchReadWrite},
					{"edges-write", wideEdgeTrace(seed+1, n), debugreg.WatchWrite},
				} {
					t.Run(tc.name, func(t *testing.T) {
						differReference(t, cfg, 4, costs, tc.accs, tc.watch)
					})
				}
			})
		}
	}
}

// differReference runs accs through Run and RunReference on two
// identically configured machines and requires identical event logs,
// cycle accounts, PMU and debug-register counters and final index.
func differReference(t *testing.T, cfg pmu.Config, slots int, costs cpumodel.Costs, accs []mem.Access, watch debugreg.WatchKind) {
	t.Helper()
	fast := newRDXLike(cfg, slots, costs)
	fast.watch = watch
	if err := fast.m.Run(trace.FromSlice(accs)); err != nil {
		t.Fatal(err)
	}
	matchReference(t, fast, cfg, slots, costs, accs, watch)
}

// differColumnsReference drives ExecuteColumns over batch boundaries
// drawn from seed — empty and single-access batches included — and
// requires RunReference's results, as differReference does for Run. It
// runs the batches twice: as AppendBatch builds them, every column
// unpacked, and packed as a decoded wire batch holds them (packColumns),
// so the engine unpacks each column when it first reads it.
func differColumnsReference(t *testing.T, cfg pmu.Config, slots int, costs cpumodel.Costs, accs []mem.Access, watch debugreg.WatchKind, seed uint64) {
	t.Helper()
	for _, packed := range []bool{false, true} {
		col := newRDXLike(cfg, slots, costs)
		col.watch = watch
		rng := stats.NewRNG(seed)
		var cols trace.Columns
		for pos := 0; pos < len(accs); {
			n := min(int(rng.Uint64n(40)), len(accs)-pos)
			if packed {
				packColumns(t, &cols, accs[pos:pos+n])
			} else {
				cols.Reset()
				cols.AppendBatch(accs[pos : pos+n])
			}
			col.m.ExecuteColumns(&cols)
			pos += n
		}
		col.m.Finish()
		matchReference(t, col, cfg, slots, costs, accs, watch)
	}
}

// packColumns refills cols with accs held packed, as the wire decoder
// leaves a batch: the address and PC columns encoded by PutAddrColumn,
// the meta column raw or run-length encoded, whichever is smaller, each
// walked by CheckColumn and handed to AppendPacked.
func packColumns(t *testing.T, cols *trace.Columns, accs []mem.Access) {
	t.Helper()
	cols.Reset()
	n := len(accs)
	if n == 0 {
		return
	}
	var plain trace.Columns
	plain.AppendBatch(accs)
	check := func(enc trace.ColumnEncoding, data []byte) trace.PackedColumn {
		p, err := trace.CheckColumn(enc, data, n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	addrCol := func(vals []mem.Addr) trace.PackedColumn {
		buf := make([]byte, trace.PackedColumnMax(n)+trace.ColumnSlack)
		k, dod := trace.PutAddrColumn(buf, vals)
		if dod {
			return check(trace.EncDoD, buf[:k])
		}
		return check(trace.EncPacked, buf[:k])
	}
	meta := check(trace.EncRaw, plain.Meta())
	if k := trace.RLEColumnLen(plain.Meta()); k < n {
		buf := make([]byte, k+trace.ColumnSlack)
		trace.PutRLEColumn(buf, plain.Meta())
		meta = check(trace.EncRLE, buf[:k])
	}
	cols.AppendPacked(addrCol(plain.Addrs()), addrCol(plain.PCs()), meta)
}

// matchReference runs accs through RunReference on a machine configured
// like fast's and requires fast's event log, cycle account, PMU and
// debug-register counters and final index to be identical.
func matchReference(t *testing.T, fast *rdxLike, cfg pmu.Config, slots int, costs cpumodel.Costs, accs []mem.Access, watch debugreg.WatchKind) {
	t.Helper()
	ref := newRDXLike(cfg, slots, costs)
	ref.watch = watch
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
}

// FuzzRunMatchesReference drives Run and RunReference with arbitrary
// accesses — any address, any size 0–255, either kind — under a fuzzed
// PMU configuration, slot count and watchpoint kind, and requires the
// same results from both. When every size fits a meta byte (0–15) it
// also drives ExecuteColumns over irregular batch boundaries drawn from
// the seed byte, in unpacked and in packed columns, and requires the
// same results from each.
//
// Input: a 4-byte header (event, randomize, skid and watch-kind bits;
// period; seed; slots), then one 4-byte record per access: kind bit and
// a 2-bit region (near 0, near 2^64, at 2^40, or a full 8-byte address
// that follows the record), size, and a 16-bit offset.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 1, 3, 0, 8, 40, 0, 1, 200, 0, 0, 0, 16, 48, 0, 1, 255, 8, 0})
	f.Add([]byte{0x24, 2, 7, 0, 2, 255, 16, 0, 3, 255, 0, 0, 2, 0, 8, 0, 7, 0, 0, 0, 0, 0, 0, 0xff, 4, 0, 0, 0})
	f.Add([]byte{0x05, 3, 9, 1, 4, 100, 0, 1, 2, 255, 200, 0, 1, 0, 240, 0, 4, 17, 0, 1})
	// Inputs on which an address window [w-S_max, w+W) that does not
	// wrap around 0, and a 15-byte window that lets rows wider than 15
	// bytes through unchecked, miss a trap.
	f.Add([]byte("7\x0470000000000000000\x00100\x00"))
	f.Add([]byte("CC0000000000000\x0000 \x00"))
	// Nine slots, accesses up to 15 bytes wide packed against both ends
	// of the address space, under the all-access and the loads-only
	// event: the column form's filter wraps around 0 and holds more
	// than four slots.
	edges := []byte{2, 8, 5, 0, 0, 15, 3, 0, 3, 4, 6, 0, 1, 8, 2, 0, 2, 15, 12, 0, 0, 1, 0, 0, 3, 8, 1, 0, 0, 8, 9, 0}
	f.Add(append([]byte{0x00, 3, 1, 8}, bytes.Repeat(edges, 6)...))
	f.Add(append([]byte{0x21, 2, 4, 17}, bytes.Repeat(edges, 6)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		h := data[0]
		cfg := pmu.Config{
			Event:     [...]pmu.EventSelect{pmu.AllAccesses, pmu.LoadsOnly, pmu.StoresOnly, pmu.AllAccesses}[h&3],
			Period:    uint64(data[1] % 64), // 0 is counting mode
			Randomize: h&4 != 0,
			Skid:      int(h >> 3 & 3),
			Seed:      uint64(data[2]),
		}
		watch := debugreg.WatchReadWrite
		if h&0x20 != 0 {
			watch = debugreg.WatchWrite
		}
		slots := 1 + int(data[3]%9)
		var accs []mem.Access
		for rec := data[4:]; len(rec) >= 4; {
			off := mem.Addr(binary.LittleEndian.Uint16(rec[2:]))
			a := mem.Access{Size: rec[1], Kind: mem.Kind(rec[0] & 1)}
			switch rec[0] >> 1 & 3 {
			case 0:
				a.Addr = off
			case 1:
				a.Addr = ^off
			case 2:
				a.Addr = 1<<40 + off
			default:
				if len(rec) < 12 {
					rec = nil
					continue
				}
				a.Addr = mem.Addr(binary.LittleEndian.Uint64(rec[4:]))
				rec = rec[8:]
			}
			rec = rec[4:]
			accs = append(accs, a)
		}
		differReference(t, cfg, slots, cpumodel.Default(), accs, watch)
		if !slices.ContainsFunc(accs, func(a mem.Access) bool { return a.Size > trace.MaxMetaSize }) {
			differColumnsReference(t, cfg, slots, cpumodel.Default(), accs, watch, uint64(data[2]))
		}
	})
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
// debug-register file under the batched engine, over a dense region
// (every access near some watchpoint) and a sparse one (the filter bits
// of slots past the first four decide the traps).
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
	differReference(t, cfg, 70, cpumodel.Default(), randomTrace(43, 20000, 1<<14), debugreg.WatchReadWrite)
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
