package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/trace"
)

// runInterrupted drives cfg over mk()'s stream with the incremental
// Execute API in batches of batchSize accesses. After cutAt batches (0 =
// never) the session is serialized with Checkpoint, torn down, restored
// with RestoreProfiler, and continued on the restored profiler/machine.
func runInterrupted(t *testing.T, cfg Config, mk func() trace.Reader, batchSize, cutAt int) *Result {
	t.Helper()
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	r := mk()
	buf := make([]mem.Access, batchSize)
	batches := 0
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			m.Execute(buf[:n])
			batches++
			if batches == cutAt {
				blob := p.Checkpoint()
				p2, m2, err := RestoreProfiler(blob)
				if err != nil {
					t.Fatalf("RestoreProfiler: %v", err)
				}
				if m2 == nil {
					t.Fatal("RestoreProfiler returned no machine for a machine-attached checkpoint")
				}
				p, m = p2, m2
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	m.Finish()
	return p.Result()
}

// TestCheckpointRestoreBitIdentical is the checkpoint contract test: for
// every replacement policy, several seeds/skids, several workloads and
// several cut points — including cuts with armed watchpoints and a
// pending skid countdown in flight — checkpoint → restore → continue
// must be indistinguishable from never having stopped.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const n = 60000
	const batchSize = 512
	policies := []ReplacementPolicy{
		ReplaceProbabilistic, ReplaceReservoir, ReplaceAlways, ReplaceNever, ReplaceHybrid,
	}
	streams := map[string]func(seed uint64) trace.Reader{
		"zipf":   func(seed uint64) trace.Reader { return trace.ZipfAccess(seed, 0, 4000, 1.0, n) },
		"cyclic": func(seed uint64) trace.Reader { return trace.Cyclic(0, 900, n) },
	}
	cuts := []int{1, 7, 60, n/batchSize - 1}
	for _, pol := range policies {
		for seed := uint64(1); seed <= 2; seed++ {
			for name, mk := range streams {
				t.Run(fmt.Sprintf("%v/seed=%d/%s", pol, seed, name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.SamplePeriod = 700
					cfg.Replacement = pol
					cfg.Seed = seed
					cfg.Skid = int(seed - 1)

					mkr := func() trace.Reader { return mk(seed) }
					want := runInterrupted(t, cfg, mkr, batchSize, 0)
					if want.Samples == 0 && cfg.Replacement != ReplaceNever {
						t.Fatal("degenerate run: no samples delivered")
					}
					for _, cut := range cuts {
						got := runInterrupted(t, cfg, mkr, batchSize, cut)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("cut at batch %d diverges from uninterrupted run: got={samples:%d traps:%d pairs:%d dropped:%d evicted:%d} want={samples:%d traps:%d pairs:%d dropped:%d evicted:%d}",
								cut, got.Samples, got.Traps, got.ReusePairs, got.Dropped, got.Evicted,
								want.Samples, want.Traps, want.ReusePairs, want.Dropped, want.Evicted)
						}
					}
				})
			}
		}
	}
}

// TestCheckpointRoundTripStable asserts Checkpoint is a pure function of
// profiler state: restoring a checkpoint and immediately checkpointing
// again must reproduce the identical blob.
func TestCheckpointRoundTripStable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 500
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	buf := make([]mem.Access, 256)
	r := trace.ZipfAccess(9, 0, 2000, 1.0, 20000)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			m.Execute(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	blob := p.Checkpoint()
	p2, _, err := RestoreProfiler(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2 := p2.Checkpoint()
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("restore+re-checkpoint changed the blob: %d bytes vs %d bytes", len(blob), len(blob2))
	}

	// And the restored session must project the same snapshot.
	s1 := p.Snapshot()
	s2 := p2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("snapshots diverge after restore")
	}
}

// TestCheckpointWithoutMachine covers profilers serialized before (or
// without) NewMachine: the restore succeeds and reports no machine.
func TestCheckpointWithoutMachine(t *testing.T) {
	p, err := NewProfiler(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, m2, err := RestoreProfiler(p.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if m2 != nil {
		t.Fatal("restored a machine that was never attached")
	}
	if p2 == nil {
		t.Fatal("no profiler restored")
	}
}

// TestRestoreProfilerRejectsCorruptInput feeds RestoreProfiler malformed
// blobs: every truncation point of a valid checkpoint, a bad magic, an
// unknown version, trailing garbage and an inflated slice count must all
// produce descriptive errors — never a panic or a giant allocation.
func TestRestoreProfilerRejectsCorruptInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 300
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(cpumodel.Default())
	buf := make([]mem.Access, 256)
	r := trace.Cyclic(0, 128, 30000)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			m.Execute(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	blob := p.Checkpoint()
	if _, _, err := RestoreProfiler(blob); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := RestoreProfiler(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, _, err := RestoreProfiler(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), blob...)
	bad[4] = 99 // version
	if _, _, err := RestoreProfiler(bad); err == nil {
		t.Fatal("unknown version accepted")
	}

	if _, _, err := RestoreProfiler(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// Inflate the slot count declared right after the fixed-width
	// header (magic + version + config + rng + 8 counters + finished):
	// the decoder must reject it against the remaining length instead of
	// allocating.
	slotCountOff := 4 + 1 + (8 + 1 + 8 + 1 + 1 + 8 + 8 + 1 + 8 + 1 + 1 + 8) + 8 + 8*8 + 1
	bad = append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[slotCountOff+i] = 0xFF
	}
	if _, _, err := RestoreProfiler(bad); err == nil {
		t.Fatal("inflated slot count accepted")
	}
}
