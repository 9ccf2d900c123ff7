package core

import (
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/trace"
)

// sameProfile asserts the parts of two results that must be bit-identical
// when they describe the same profiling state: histograms, attribution,
// counters and modelled overhead. StateBytes is excluded — Result logs
// the still-armed watchpoints as end-censored, where a Snapshot only
// projects them.
func sameProfile(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.ReuseDistance.Snapshot(), b.ReuseDistance.Snapshot()) {
		t.Errorf("%s: reuse-distance histograms differ", label)
	}
	if !reflect.DeepEqual(a.ReuseTime.Snapshot(), b.ReuseTime.Snapshot()) {
		t.Errorf("%s: reuse-time histograms differ", label)
	}
	if !reflect.DeepEqual(a.Attribution, b.Attribution) {
		t.Errorf("%s: attributions differ", label)
	}
	counters := func(r *Result) [9]uint64 {
		return [9]uint64{r.Accesses, r.Samples, r.ArmedSamples, r.Traps,
			r.ReusePairs, r.ColdSamples, r.Dropped, r.Evicted, r.Duplicates}
	}
	if counters(a) != counters(b) {
		t.Errorf("%s: counters differ: %v vs %v", label, counters(a), counters(b))
	}
	if a.TimeOverhead() != b.TimeOverhead() {
		t.Errorf("%s: overheads differ: %v vs %v", label, a.TimeOverhead(), b.TimeOverhead())
	}
}

// TestSnapshotAtEndMatchesResult: a snapshot taken after the last access
// must be bit-identical to the final Result.
func TestSnapshotAtEndMatchesResult(t *testing.T) {
	cfg := testConfig(300)
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	if err := m.Run(trace.ZipfAccess(7, 0, 4096, 1.0, 400000)); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	res := p.Result()
	sameProfile(t, "snapshot-at-end vs result", snap, res)
}

// TestSnapshotDoesNotPerturb: taking snapshots throughout an incremental
// run must leave the final Result bit-identical to an undisturbed run of
// the same stream, and the snapshots themselves must be monotone in
// accesses with histogram mass tracking the access count.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	const n = 500000
	cfg := testConfig(250)
	stream := func() trace.Reader { return trace.ZipfAccess(3, 0, 8192, 1.0, n) }

	undisturbed := runRDX(t, cfg, stream())

	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	accs, err := trace.Collect(stream())
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Result
	const batch = 1000
	for pos := 0; pos < len(accs); pos += batch {
		end := pos + batch
		if end > len(accs) {
			end = len(accs)
		}
		m.Execute(accs[pos:end])
		if (pos/batch)%50 == 49 {
			snaps = append(snaps, p.Snapshot())
		}
	}
	m.Finish()
	res := p.Result()

	sameProfile(t, "snapshotted run vs undisturbed run", res, undisturbed)

	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	prev := uint64(0)
	for i, s := range snaps {
		if s.Accesses <= prev || s.Accesses > n {
			t.Fatalf("snapshot %d: accesses=%d (prev %d, total %d)", i, s.Accesses, prev, n)
		}
		prev = s.Accesses
		// Histogram mass is normalized to the access count at snapshot
		// time (within float rounding), so live dashboards see absolute
		// scale, not just shape.
		if s.Samples > 0 {
			total := s.ReuseDistance.Total()
			if total < 0.99*float64(s.Accesses) || total > 1.01*float64(s.Accesses) {
				t.Errorf("snapshot %d: histogram mass %.0f for %d accesses", i, total, s.Accesses)
			}
		}
	}
}

// TestSnapshotRepeatable: two consecutive snapshots with no accesses in
// between are bit-identical (Snapshot reads state, never consumes it).
func TestSnapshotRepeatable(t *testing.T) {
	cfg := testConfig(100)
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	m.Execute(mkAccesses(100000, 512))
	s1 := p.Snapshot()
	s2 := p.Snapshot()
	sameProfile(t, "repeated snapshot", s1, s2)
	if s1.StateBytes != s2.StateBytes {
		t.Errorf("StateBytes differ across idle snapshots: %d vs %d", s1.StateBytes, s2.StateBytes)
	}
}

// mkAccesses builds a cyclic access slice for incremental-execution tests.
func mkAccesses(n int, words uint64) []mem.Access {
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{
			Addr: mem.Addr(uint64(i) % words * 8),
			PC:   0x400000,
			Size: 8,
			Kind: mem.Load,
		}
	}
	return accs
}
