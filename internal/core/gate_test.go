package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/mem"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The throughput gate times each fast path against the retained
// per-access reference loop (Machine.RunReference) on the same host, in
// the same process, with the runs interleaved. Host load slows both
// sides of a ratio alike, so the ratio holds where an absolute
// accesses-per-second floor swings with whatever else the host runs.
//
// The committed ratios were measured on a shared 2-vCPU x86-64 Linux
// host (October 2026, Go 1.24) at this test's operating point: the four
// local-suite kernels at 1M accesses each, period 8192, and each rep
// timing every kernel once per side, interleaved. They were measured by
// wall clock; each rep is now timed by its thread's CPU time, so a rep
// preempted by other load is no longer charged the wait. On the same
// host, idle, six runs by thread CPU time had engine medians 6.57-6.93
// and oracle medians 0.225-0.235; two beside two CPU-hog processes had
// 7.13-7.41 and 0.195-0.198 (the hogs still share caches and cores). A gate's ratio is the
// median over gateReps reps of the kernels' summed times, and it fails
// below gateTolerance times its committed ratio. The 25% margin covers
// the drift between runs on a shared host, recorded below: a ratio
// cancels a uniform slowdown, but not one that hits the two sides
// unevenly.
//
// A slowdown the fast path shares with the reference loop (the PMU
// tick, the debug-register check, trace reading) moves both sides and
// does not show here. perfbench's accesses_per_s and setup_s remain
// the absolute guard for those.
const (
	// committedEngineRatio is RunReference time over Run time. With
	// the watch-filter scan, fifteen runs had medians 6.39-8.22 (middle
	// 7.23), against 5.81-6.49 (middle 6.07) for five runs of the
	// address-screen scan interleaved with five of them. Before,
	// fourteen idle runs of the screen scan had medians 5.87-6.81
	// (middle 6.29) and four runs beside two CPU-hog processes had
	// 5.59-6.92.
	committedEngineRatio = 7.2
	// committedOracleRatio is RunReference time over exact.Measure
	// time. Fourteen idle runs had medians 0.197-0.229 (middle 0.214);
	// four runs beside two CPU-hog processes had 0.191-0.228.
	committedOracleRatio = 0.214

	gateTolerance = 0.75
	gateAccesses  = 1 << 20
	gatePeriod    = 8192
	gateReps      = 9
)

// checkThroughputRatio fails a measured ratio below gateTolerance times
// its committed value.
func checkThroughputRatio(name string, got, committed float64) error {
	if floor := gateTolerance * committed; !(got >= floor) {
		return fmt.Errorf("%s throughput ratio %.3f < floor %.3f (%.0f%% of committed %.3f)",
			name, got, floor, 100*gateTolerance, committed)
	}
	return nil
}

// TestThroughputGate holds Machine.Run and the exact oracle to their
// committed speed relative to the reference loop. The kernels arm
// watchpoints nearly all the time at this period, so Run's timed path
// is its watch-filter scan, and the oracle's is its block-table
// probe and order-statistics update.
func TestThroughputGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("throughput is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("measures throughput for several seconds")
	}
	var traces [][]mem.Access
	for _, k := range []string{"lbm", "mcf", "xalancbmk", "exchange2"} {
		r, err := workloads.Build(k, 1, gateAccesses)
		if err != nil {
			t.Fatal(err)
		}
		accs, err := trace.Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, accs)
	}
	cfg := DefaultConfig()
	cfg.SamplePeriod = gatePeriod
	machine := func() *cpu.Machine {
		p, err := NewProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.NewMachine(cpumodel.Default())
	}
	// Every rep is timed by the CPU time of the one thread running it,
	// so a rep preempted by other load on the host is not charged the
	// wait. The measured code runs on this goroutine alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	timed := func(f func() error) time.Duration {
		runtime.GC()
		start := threadCPU()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return threadCPU() - start
	}

	engine := make([]float64, gateReps)
	oracle := make([]float64, gateReps)
	for rep := range gateReps {
		var run, ref, orc time.Duration
		for _, accs := range traces {
			m := machine()
			ref += timed(func() error { return m.RunReference(trace.FromSlice(accs)) })
			m = machine()
			run += timed(func() error { return m.Run(trace.FromSlice(accs)) })
			orc += timed(func() error {
				_, err := exact.Measure(trace.FromSlice(accs), mem.WordGranularity)
				return err
			})
		}
		engine[rep] = float64(ref) / float64(run)
		oracle[rep] = float64(ref) / float64(orc)
	}
	slices.Sort(engine)
	slices.Sort(oracle)
	t.Logf("engine ratio: median %.3f, range %.3f-%.3f", engine[gateReps/2], engine[0], engine[gateReps-1])
	t.Logf("oracle ratio: median %.3f, range %.3f-%.3f", oracle[gateReps/2], oracle[0], oracle[gateReps-1])
	if err := checkThroughputRatio("engine (RunReference/Run)", engine[gateReps/2], committedEngineRatio); err != nil {
		t.Error(err)
	}
	if err := checkThroughputRatio("oracle (RunReference/exact.Measure)", oracle[gateReps/2], committedOracleRatio); err != nil {
		t.Error(err)
	}
}

// TestThroughputGateCheck: the gate passes against a trivially low
// committed ratio and fails against an unreachable one, or when the
// measurement is not a number.
func TestThroughputGateCheck(t *testing.T) {
	if err := checkThroughputRatio("engine", 5, 1e-9); err != nil {
		t.Errorf("gate failed against a trivially low committed ratio: %v", err)
	}
	if err := checkThroughputRatio("engine", 5, 1e9); err == nil {
		t.Error("gate passed against an unreachable committed ratio")
	}
	if err := checkThroughputRatio("engine", 0.75*4, 4); err != nil {
		t.Errorf("gate failed exactly at its floor: %v", err)
	}
	if err := checkThroughputRatio("engine", 0.74*4, 4); err == nil {
		t.Error("gate passed below its floor")
	}
	if err := checkThroughputRatio("engine", math.NaN(), 4); err == nil {
		t.Error("gate passed a ratio that is not a number")
	}
}
