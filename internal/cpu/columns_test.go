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

// edgeTrace draws accesses packed against both ends of the address
// space — within 64 bytes of 0 and of 2^64 — at every size a meta byte
// holds, with a quarter far from either, so watchpoints get armed where
// the watch filter's window wraps around 0.
func edgeTrace(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	accs := make([]mem.Access, n)
	for i := range accs {
		var addr mem.Addr
		switch rng.Uint64n(4) {
		case 0:
			addr = mem.Addr(rng.Uint64n(64))
		case 1:
			addr = ^mem.Addr(rng.Uint64n(64))
		case 2:
			addr = mem.Addr(1<<40 + rng.Uint64n(4096))
		default:
			addr = mem.Addr(rng.Uint64n(16)) - 8
		}
		accs[i] = mem.Access{
			Addr: addr,
			PC:   mem.Addr(0x400000 + rng.Uint64n(64)*4),
			Size: uint8(1 + rng.Uint64n(15)),
			Kind: mem.Kind(rng.Uint64n(2)),
		}
	}
	return accs
}

// TestExecuteColumnsMatchesExecute is the column form's differential
// gate: driving the machine with ExecuteColumns over irregular batch
// boundaries must reproduce the row-wise Execute run bit-exactly —
// identical event logs (indices, addresses, handler-observed counter
// values), cycle accounts, PMU counters and debug-register tallies. Each
// PMU configuration (all-access, loads-only and stores-only events) runs
// over a random trace and over edgeTrace's address-space ends, arming
// read-write and write-only watchpoints.
func TestExecuteColumnsMatchesExecute(t *testing.T) {
	costs := cpumodel.Default()
	cfgs := []pmu.Config{
		{Event: pmu.AllAccesses, Period: 100, Randomize: true, Seed: 7},
		{Event: pmu.AllAccesses, Period: 64, Randomize: true, Skid: 5, Seed: 3},
		{Event: pmu.LoadsOnly, Period: 50, Randomize: true, Seed: 11},
		{Event: pmu.StoresOnly, Period: 30, Skid: 2, Seed: 5},
		{Event: pmu.AllAccesses, Period: 1, Seed: 9},
		{Event: pmu.AllAccesses, Period: 0, Seed: 1}, // counting mode
	}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("cfg=%d", ci), func(t *testing.T) {
			for _, tc := range []struct {
				name  string
				accs  []mem.Access
				watch debugreg.WatchKind
			}{
				{"random", randomTrace(uint64(ci)*17+1, 30011, 96), debugreg.WatchReadWrite},
				{"random-write", randomTrace(uint64(ci)*17+2, 30011, 96), debugreg.WatchWrite},
				{"edges", edgeTrace(uint64(ci)*17+3, 30011), debugreg.WatchReadWrite},
				{"edges-write", edgeTrace(uint64(ci)*17+4, 30011), debugreg.WatchWrite},
			} {
				t.Run(tc.name, func(t *testing.T) {
					differColumns(t, cfg, costs, tc.accs, tc.watch)
				})
			}
		})
	}
}

// differColumns runs accs through a row-wise and a columnar machine over
// the same irregular batch boundaries and requires identical results.
func differColumns(t *testing.T, cfg pmu.Config, costs cpumodel.Costs, accs []mem.Access, watch debugreg.WatchKind) {
	row := newRDXLike(cfg, 4, costs)
	col := newRDXLike(cfg, 4, costs)
	row.watch, col.watch = watch, watch
	rng := stats.NewRNG(5)
	var cols trace.Columns
	for pos := 0; pos < len(accs); {
		n := int(rng.Uint64n(700)) // 0 is a legal (no-op) batch
		if pos+n > len(accs) {
			n = len(accs) - pos
		}
		batch := accs[pos : pos+n]
		row.m.Execute(batch)
		cols.Reset()
		cols.AppendBatch(batch)
		col.m.ExecuteColumns(&cols)
		pos += n
	}
	row.m.Finish()
	col.m.Finish()

	if !reflect.DeepEqual(row.events, col.events) {
		t.Fatalf("event logs diverge:\nrow %d events\ncol %d events\nrow=%v\ncol=%v",
			len(row.events), len(col.events), head(row.events), head(col.events))
	}
	if cfg.Period > 0 && row.f.Traps() == 0 {
		t.Fatalf("no watchpoint trapped: the trace does not exercise the pre-screen")
	}
	if !reflect.DeepEqual(row.m.Account(), col.m.Account()) {
		t.Fatalf("accounts diverge:\nrow=%+v\ncol=%+v", row.m.Account(), col.m.Account())
	}
	if row.p.Count() != col.p.Count() || row.p.AllCount() != col.p.AllCount() || row.p.Samples() != col.p.Samples() {
		t.Fatalf("PMU counters diverge")
	}
	if row.f.Traps() != col.f.Traps() || row.f.Arms() != col.f.Arms() {
		t.Fatalf("debugreg counters diverge")
	}
	if row.m.AccessIndex() != col.m.AccessIndex() {
		t.Fatalf("final AccessIndex: row=%d col=%d", row.m.AccessIndex(), col.m.AccessIndex())
	}
}

// TestExecuteColumnsInstrumented: the exhaustive path must observe every
// access, in order, with the right indices and reconstructed fields.
func TestExecuteColumnsInstrumented(t *testing.T) {
	accs := randomTrace(3, 9000, 96)
	var got []mem.Access
	var idxs []uint64
	m := New(cpumodel.Default(), WithInstrumentation(func(idx uint64, a mem.Access) {
		idxs = append(idxs, idx)
		got = append(got, a)
	}))
	var cols trace.Columns
	cols.AppendBatch(accs)
	m.ExecuteColumns(&cols)
	m.Finish()
	if len(got) != len(accs) {
		t.Fatalf("instrumented %d accesses, want %d", len(got), len(accs))
	}
	for i := range got {
		if idxs[i] != uint64(i) {
			t.Fatalf("instrumentation index %d = %d", i, idxs[i])
		}
		if got[i] != accs[i] {
			t.Fatalf("access %d reconstructed as %v, want %v", i, got[i], accs[i])
		}
	}
}

// TestExecuteColumnsBareMachine checks the columnar free-run fast path.
func TestExecuteColumnsBareMachine(t *testing.T) {
	const n = 10000
	m := New(cpumodel.Default())
	accs, err := trace.Collect(trace.Cyclic(0, 100, n))
	if err != nil {
		t.Fatal(err)
	}
	var cols trace.Columns
	cols.AppendBatch(accs)
	m.ExecuteColumns(&cols)
	m.Finish()
	if got := m.Account().Accesses; got != n {
		t.Fatalf("accesses = %d, want %d", got, n)
	}
	if got := m.AccessIndex(); got != n-1 {
		t.Fatalf("AccessIndex = %d, want %d", got, n-1)
	}
}
