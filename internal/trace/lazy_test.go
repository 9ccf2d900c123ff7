package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Tests of the columns wire.DecodeColumnsInto leaves packed: the engine
// unpacks a column only when it reads it, and the results match columns
// built unpacked by AppendBatch. They live in the external test package
// because the decoder and the profiler import trace.

// kernelTrace returns n accesses of a suite kernel.
func kernelTrace(t *testing.T, kernel string, n int) []mem.Access {
	t.Helper()
	r, err := workloads.Build(kernel, 1, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// decodePacked encodes accs as one wire batch and decodes it into cols,
// whose columns are then still packed.
func decodePacked(t *testing.T, cols *trace.Columns, accs []mem.Access) {
	t.Helper()
	var enc trace.Columns
	enc.AppendBatch(accs)
	payload, err := wire.EncodeColumns(nil, 1, &enc)
	if err != nil {
		t.Fatal(err)
	}
	cols.Reset()
	if _, err := wire.DecodeColumnsInto(cols, payload); err != nil {
		t.Fatal(err)
	}
}

// TestEventFreeBatchStaysPacked: at period 65536 most batches hold no
// event (no sample, no trap). ExecuteColumns reads none of the columns
// of such a batch while no watchpoint is armed, so every one stays
// packed; sampling loads only, it reads the meta column's kind bits
// alone. Whatever the event, an event-free batch leaves the PC column
// packed, before and after the first sample arms a watchpoint, and a
// batch that delivers an event unpacks it, since the event's access
// carries its PC.
func TestEventFreeBatchStaysPacked(t *testing.T) {
	const batch = 8192
	accs := kernelTrace(t, "mcf", 32*batch)
	for _, tc := range []struct {
		name  string
		event pmu.EventSelect
	}{
		{"all-accesses", pmu.AllAccesses},
		{"loads-only", pmu.LoadsOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.SamplePeriod = 65536
			cfg.Event = tc.event
			p, err := core.NewProfiler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := p.NewMachine(cpumodel.Default())
			var cols trace.Columns
			var unarmed, armed int // event-free batches before and after the first sample
			for off := 0; off < len(accs); off += batch {
				decodePacked(t, &cols, accs[off:off+batch])
				samples, traps := m.Account().Samples, m.Account().Traps
				m.ExecuteColumns(&cols)
				addrs, pcs, meta := trace.StillPacked(&cols)
				switch {
				case m.Account().Samples != samples || m.Account().Traps != traps:
					if pcs {
						t.Fatalf("batch at %d: a delivered event left the PC column packed", off)
					}
				case !pcs:
					t.Fatalf("batch at %d: event-free batch unpacked the PC column", off)
				case samples > 0:
					armed++
				case !addrs || meta != (tc.event == pmu.AllAccesses):
					t.Fatalf("batch at %d: event-free batch with nothing armed unpacked columns: addrs %v, meta %v still packed", off, addrs, meta)
				default:
					unarmed++
				}
			}
			if unarmed == 0 || armed == 0 {
				t.Fatalf("%d event-free batches before the first sample, %d after: want some of each", unarmed, armed)
			}
		})
	}
}

// TestPackedColumnsMatchAppendBatch: a profile fed wire-decoded, still
// packed columns gives the Result of one fed AppendBatch columns. With
// an unrandomized period P the samples fall every P accesses, and
// batches of P accesses after a first batch of P-1 or P put a sample at
// index 0 or at the last index of every batch, so the first column read
// is an event's Access there; the third case samples loads only, which
// reads every access's kind.
func TestPackedColumnsMatchAppendBatch(t *testing.T) {
	const period = 4096
	accs := kernelTrace(t, "mcf", 48*period)
	for _, tc := range []struct {
		name  string
		first int
		event pmu.EventSelect
	}{
		{"event-at-index-0", period - 1, pmu.AllAccesses},
		{"event-at-last-index", period, pmu.AllAccesses},
		{"loads-only", period, pmu.LoadsOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.SamplePeriod = period
			cfg.RandomizePeriod = false
			cfg.Event = tc.event
			run := func(fill func(*trace.Columns, []mem.Access)) *core.Result {
				p, err := core.NewProfiler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := p.NewMachine(cpumodel.Default())
				var cols trace.Columns
				for off, n := 0, tc.first; off < len(accs); off, n = off+n, period {
					fill(&cols, accs[off:min(off+n, len(accs))])
					m.ExecuteColumns(&cols)
				}
				m.Finish()
				return p.Result()
			}
			want := run(func(c *trace.Columns, b []mem.Access) { c.Reset(); c.AppendBatch(b) })
			got := run(func(c *trace.Columns, b []mem.Access) { decodePacked(t, c, b) })
			if want.Samples == 0 || want.Traps == 0 {
				t.Fatalf("profile took %d samples and %d traps; the case needs both", want.Samples, want.Traps)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packed columns: %s\nAppendBatch columns: %s", resultLine(got), resultLine(want))
			}
		})
	}
}

func resultLine(r *core.Result) string {
	return fmt.Sprintf("accesses %d samples %d traps %d pairs %d", r.Accesses, r.Samples, r.Traps, r.ReusePairs)
}
