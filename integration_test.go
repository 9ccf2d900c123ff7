package rdx

// Integration tests exercising the public API end to end: the complete
// profile → analyze → compare pipeline a downstream user runs.

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/cache"
)

func TestEndToEndWorkloadPipeline(t *testing.T) {
	// Full pipeline on one suite workload: profile, ground truth,
	// accuracy, miss-ratio prediction, attribution, serialization.
	const n = 1 << 20
	cfg := DefaultConfig()
	cfg.SamplePeriod = 2 << 10

	stream, err := Workload("perlbench", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(WithConfig(cfg)).Profile(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}

	stream, err = Workload("perlbench", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := Exact(stream, WordGranularity)
	if err != nil {
		t.Fatal(err)
	}

	if acc := Accuracy(res.ReuseDistance, gt.ReuseDistance); acc < 0.80 {
		t.Errorf("pipeline accuracy = %v", acc)
	}

	// Histogram mass equals the access count on both sides.
	if math.Abs(res.ReuseDistance.Total()-float64(n)) > 1 {
		t.Errorf("RDX histogram mass = %v, want %d", res.ReuseDistance.Total(), n)
	}
	if gt.ReuseDistance.Total() != float64(n) {
		t.Errorf("GT histogram mass = %v, want %d", gt.ReuseDistance.Total(), n)
	}

	// Miss-ratio predictions from both histograms agree.
	for _, capWords := range []uint64{1 << 10, 1 << 16} {
		a := cache.PredictMissRatio(res.ReuseDistance, capWords)
		b := cache.PredictMissRatio(gt.ReuseDistance, capWords)
		if math.Abs(a-b) > 0.12 {
			t.Errorf("miss prediction at %d words: RDX %v vs GT %v", capWords, a, b)
		}
	}

	// Attribution carries the workload's tagged PCs.
	if len(res.Attribution) == 0 {
		t.Fatal("no attribution pairs")
	}
	for _, p := range res.Attribution {
		if p.Pair.UsePC < 0x400000 {
			t.Errorf("untagged PC %#x in attribution", uint64(p.Pair.UsePC))
		}
	}

	// Histograms survive a JSON round trip.
	data, err := json.Marshal(res.ReuseDistance)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(res.ReuseDistance, &back); acc != 1 {
		t.Errorf("JSON round trip accuracy = %v", acc)
	}
}

func TestEndToEndMultithreaded(t *testing.T) {
	const n = 512 << 10
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1 << 10

	streams := make([]Reader, 3)
	for i := range streams {
		s, err := Workload("exchange2", uint64(i+1), n)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	multi, err := New(WithConfig(cfg)).ProfileThreads(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Accesses != 3*n {
		t.Errorf("merged accesses = %d", multi.Accesses)
	}
	single, err := Workload("exchange2", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := Exact(single, WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	// Threads run the same kernel, so the merged shape matches one
	// thread's ground truth.
	if acc := Accuracy(multi.ReuseDistance, gt.ReuseDistance); acc < 0.85 {
		t.Errorf("merged multithread accuracy vs single GT = %v", acc)
	}
}

func TestEndToEndEveryWorkloadSmoke(t *testing.T) {
	// Every suite workload must survive the full pipeline at smoke size.
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1 << 10
	for _, name := range WorkloadNames() {
		stream, err := Workload(name, 1, 128<<10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(WithConfig(cfg)).Profile(context.Background(), stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Component shares round down, so a stream may come up a few
		// accesses short of the requested n.
		if res.Accesses < 128<<10-8 || res.Accesses > 128<<10 {
			t.Errorf("%s: accesses = %d", name, res.Accesses)
		}
		if res.Samples == 0 {
			t.Errorf("%s: no samples", name)
		}
		if tot := res.ReuseDistance.Total(); math.Abs(tot-float64(res.Accesses)) > 1e-3 {
			t.Errorf("%s: histogram mass %v vs %d accesses", name, tot, res.Accesses)
		}
	}
}
