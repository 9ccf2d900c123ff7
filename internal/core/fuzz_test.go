package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// restoreAllocPerByte and restoreAllocFixed bound the heap bytes one
// RestoreProfiler call may allocate: restoreAllocPerByte per blob byte
// (a watchpoint's 43 blob bytes become 74 bytes of profiler and
// debug-register slots; logs are 1:1) plus restoreAllocFixed for the
// profiler, PMU, register file and machine themselves and an error
// message. A decoder that sizes anything from a count it has not
// checked against the bytes left fails on short inputs.
const (
	restoreAllocPerByte = 2
	restoreAllocFixed   = 4 << 10
)

func restoreAllocBound(data []byte) uint64 {
	return uint64(restoreAllocPerByte*len(data) + restoreAllocFixed)
}

// restoreAlloc returns the heap bytes RestoreProfiler(data) allocates.
func restoreAlloc(data []byte) uint64 {
	return testutil.AllocBytes(func() { RestoreProfiler(data) })
}

// checkpointSeeds are real checkpoints: taken mid-stream and after
// Finish with a machine attached, on a profiler that never ran, and
// with more watchpoints than one mask word covers.
func checkpointSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, tc := range []struct {
		policy      ReplacementPolicy
		watchpoints int
		skid        int
	}{
		{ReplaceProbabilistic, 4, 0},
		{ReplaceReservoir, 4, 2},
		{ReplaceHybrid, 70, 1},
	} {
		cfg := DefaultConfig()
		cfg.SamplePeriod = 300
		cfg.Replacement = tc.policy
		cfg.NumWatchpoints = tc.watchpoints
		cfg.Skid = tc.skid
		p, err := NewProfiler(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		m := p.NewMachine(cpumodel.Default())
		accs, err := trace.Collect(trace.ZipfAccess(3, 0, 2000, 1.0, 6000))
		if err != nil {
			tb.Fatal(err)
		}
		m.Execute(accs[:len(accs)/2])
		seeds = append(seeds, p.Checkpoint())
		m.Execute(accs[len(accs)/2:])
		m.Finish()
		seeds = append(seeds, p.Checkpoint())
	}
	p, err := NewProfiler(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, p.Checkpoint())
}

// FuzzRestoreProfiler throws arbitrary bytes at RestoreProfiler, which
// reads checkpoint blobs from disk and from peer handoffs. Whatever the
// input, it must return an error or a profiler, never panic, and
// allocate at most restoreAllocPerByte heap bytes per blob byte plus
// restoreAllocFixed. A blob it accepts must be canonical: checkpointing
// the restored profiler reproduces it byte for byte, so restoring that
// again gives the same bytes. A restored machine must then run a short
// stream and snapshot its result without panicking.
func FuzzRestoreProfiler(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte("RDXC"))
	f.Add([]byte{})
	stream, err := trace.Collect(trace.ZipfAccess(5, 0, 3000, 1.0, 5000))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if !testutil.RaceEnabled {
			if alloc := restoreAlloc(data); alloc > restoreAllocBound(data) {
				t.Fatalf("restoring %d bytes allocates %d bytes, bound %d", len(data), alloc, restoreAllocBound(data))
			}
		}
		p, m, err := RestoreProfiler(data)
		if err != nil {
			return
		}
		if blob := p.Checkpoint(); !bytes.Equal(blob, data) {
			t.Fatalf("accepted %d-byte blob re-checkpoints to %d different bytes", len(data), len(blob))
		}
		// A resumed session runs on and is read, live and finally: that
		// must not panic either.
		if m != nil {
			m.Execute(stream)
			m.Finish()
		}
		p.Snapshot()
		p.Result()
	})
}

// TestRestoreProfilerRefusesFinished: a checkpoint taken after Result
// is refused. Restoring it would hand back a profiler whose Result
// panics, and the daemon's resume path takes Result at finish.
func TestRestoreProfilerRefusesFinished(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 300
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	accs, err := trace.Collect(trace.ZipfAccess(3, 0, 2000, 1.0, 6000))
	if err != nil {
		t.Fatal(err)
	}
	m.Execute(accs)
	m.Finish()
	p.Result()
	if _, _, err := RestoreProfiler(p.Checkpoint()); err == nil {
		t.Fatal("checkpoint of a finished profile restored")
	}
}

// TestRestoreProfilerRejectsCoarseGranularity: a checkpoint whose
// granularity byte is past a 4 KiB page is refused, instead of
// profiling with every address mapped to block 0.
func TestRestoreProfilerRejectsCoarseGranularity(t *testing.T) {
	blob := checkpointSeeds(t)[0]
	// The granularity byte follows magic, version, SamplePeriod,
	// RandomizePeriod, the watchpoint count and WatchWidth.
	const granOff = 4 + 1 + 8 + 1 + 8 + 1
	if g := blob[granOff]; g != 3 {
		t.Fatalf("byte %d of the seed checkpoint is %d, want word granularity 3", granOff, g)
	}
	bad := append([]byte(nil), blob...)
	bad[granOff] = 200
	if _, _, err := RestoreProfiler(bad); err == nil {
		t.Fatal("checkpoint with granularity 200 restored")
	}
}

// TestRestoreProfilerWatchpointCountBound: a blob declaring more
// watchpoints than its remaining bytes can describe is rejected before
// any slot is allocated, however small the blob.
func TestRestoreProfilerWatchpointCountBound(t *testing.T) {
	blob := checkpointSeeds(t)[0]
	// The watchpoint count follows magic, version, SamplePeriod and
	// RandomizePeriod.
	const nwpOff = 4 + 1 + 8 + 1
	for _, nwp := range []uint64{1 << 20, 1 << 40} {
		bad := append([]byte(nil), blob...)
		binary.BigEndian.PutUint64(bad[nwpOff:], nwp)
		if _, _, err := RestoreProfiler(bad); err == nil {
			t.Fatalf("%d watchpoints in a %d-byte blob accepted", nwp, len(bad))
		}
		if alloc := restoreAlloc(bad); !testutil.RaceEnabled && alloc > restoreAllocBound(bad) {
			t.Errorf("%d watchpoints in a %d-byte blob: allocated %d bytes before rejecting it", nwp, len(bad), alloc)
		}
	}
}
