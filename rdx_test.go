package rdx

import (
	"context"
	"math"
	"testing"
)

func TestProfileAgainstExact(t *testing.T) {
	mk := func() Reader { return Cyclic(0, 256, 300000) }
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1000
	res, err := New(WithConfig(cfg)).Profile(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	gt, err := Exact(mk(), WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(res.ReuseDistance, gt.ReuseDistance); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
	if gt.DistinctBlocks != 256 {
		t.Errorf("distinct blocks = %d, want 256", gt.DistinctBlocks)
	}
	if gt.Accesses != 300000 {
		t.Errorf("accesses = %d", gt.Accesses)
	}
}

func TestProfileRejectsBadConfig(t *testing.T) {
	if _, err := New(WithConfig(Config{})).Profile(context.Background(), Cyclic(0, 8, 100)); err == nil {
		t.Error("zero config accepted")
	}
	// A remote run refuses it before dialing, rather than retrying the
	// daemon's rejection.
	want := Config{}.Validate()
	_, err := New(WithConfig(Config{}), WithRemote("127.0.0.1:1")).Profile(context.Background(), Cyclic(0, 8, 100))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("remote run with a zero config: got %v, want %v", err, want)
	}
}

func TestWorkloadAPI(t *testing.T) {
	names := WorkloadNames()
	if len(names) < 10 {
		t.Fatalf("suite has %d workloads", len(names))
	}
	r, err := Workload(names[0], 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SamplePeriod = 100
	if _, err := New(WithConfig(cfg)).Profile(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("bogus", 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPredictMissRatioAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 500
	res, err := New(WithConfig(cfg)).Profile(context.Background(), Cyclic(0, 64, 64000))
	if err != nil {
		t.Fatal(err)
	}
	// Working set of 64 words: a 128-word cache captures all reuse
	// (cold-only misses), a 32-word cache captures none.
	curve := res.MissRatioCurve(SizeSweep{})
	small := curve.At(32)
	big := curve.At(128)
	if small < 0.99 {
		t.Errorf("under-capacity miss ratio = %v, want ~1", small)
	}
	if big > 0.01 {
		t.Errorf("over-capacity miss ratio = %v, want ~0 (cold only)", big)
	}
}

func TestProfileWithCosts(t *testing.T) {
	costs := DefaultCosts()
	costs.SampleCycles *= 10
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1000
	cheap, err := New(WithConfig(cfg)).Profile(context.Background(), Cyclic(0, 64, 200000))
	if err != nil {
		t.Fatal(err)
	}
	dear, err := New(WithConfig(cfg), WithCosts(costs)).Profile(context.Background(), Cyclic(0, 64, 200000))
	if err != nil {
		t.Fatal(err)
	}
	if dear.TimeOverhead() <= cheap.TimeOverhead() {
		t.Errorf("10x sample cost did not raise overhead: %v vs %v",
			dear.TimeOverhead(), cheap.TimeOverhead())
	}
}

func TestStreamComposition(t *testing.T) {
	r := Limit(Concat(Sequential(0, 100, 8), RandomUniform(1, 1<<20, 64, 1000)), 500)
	gt, err := Exact(r, WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Accesses != 500 {
		t.Errorf("composed stream length = %d, want 500", gt.Accesses)
	}
}

func TestInfiniteSentinel(t *testing.T) {
	if Infinite != math.MaxUint64 {
		t.Error("Infinite sentinel changed")
	}
}
