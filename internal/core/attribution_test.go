package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestAttributionSeparatesComponents(t *testing.T) {
	// Two components at distinct PCs with very different locality: a hot
	// small loop and a large cyclic sweep. Attribution must split them
	// and order their distances correctly.
	const n = 400000
	mk := func() trace.Reader {
		return trace.Limit(trace.Mix(3,
			[]trace.Reader{
				trace.Tag(0x1000, trace.Cyclic(0, 64, n/2)),
				trace.Tag(0x2000, trace.Cyclic(1<<30, 20000, n/2)),
			},
			[]float64{1, 1}), n)
	}
	cfg := testConfig(200)
	res := runRDX(t, cfg, mk())
	if len(res.Attribution) < 2 {
		t.Fatalf("attribution has %d pairs, want >= 2", len(res.Attribution))
	}
	var hot, big *PairStat
	for i := range res.Attribution {
		p := &res.Attribution[i]
		switch p.Pair {
		case PairKey{UsePC: 0x1000, ReusePC: 0x1000}:
			hot = p
		case PairKey{UsePC: 0x2000, ReusePC: 0x2000}:
			big = p
		}
	}
	if hot == nil || big == nil {
		t.Fatalf("expected same-site pairs for both components; got %+v", res.Attribution.TopWeight(5))
	}
	if hot.MeanDistance >= big.MeanDistance {
		t.Errorf("hot loop mean distance %v should be far below big sweep %v",
			hot.MeanDistance, big.MeanDistance)
	}
	if big.MeanDistance < 10000 || big.MeanDistance > 40000 {
		t.Errorf("big sweep mean distance = %v, want ~20000", big.MeanDistance)
	}
	if hot.MeanDistance > 200 {
		t.Errorf("hot loop mean distance = %v, want ~63", hot.MeanDistance)
	}
}

func TestAttributionMatchesExactPairs(t *testing.T) {
	// The sampled attribution's per-pair mean distances must agree with
	// exhaustive attribution within sampling error.
	const n = 400000
	mk := func() trace.Reader {
		return trace.Limit(trace.Mix(7,
			[]trace.Reader{
				trace.Tag(0x1000, trace.Cyclic(0, 500, n/2)),
				trace.Tag(0x2000, trace.Cyclic(1<<30, 9000, n/2)),
			},
			[]float64{1, 1}), n)
	}
	res := runRDX(t, testConfig(200), mk())

	gt := exact.New(mem.WordGranularity, exact.WithAttribution())
	if err := trace.ForEach(mk(), func(a mem.Access) bool { gt.Observe(a); return true }); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Attribution.TopWeight(2) {
		gtAgg := gt.Pairs()[exact.PairKey{UsePC: p.Pair.UsePC, ReusePC: p.Pair.ReusePC}]
		if gtAgg == nil {
			t.Fatalf("pair %+v missing from exact attribution", p.Pair)
		}
		gtMean := gtAgg.MeanDistance()
		if p.MeanDistance < gtMean*0.5 || p.MeanDistance > gtMean*2 {
			t.Errorf("pair %+v mean distance %v vs exact %v (want within 2x)",
				p.Pair, p.MeanDistance, gtMean)
		}
	}
}

func TestAttributionWorstLocality(t *testing.T) {
	const n = 300000
	r := trace.Limit(trace.Mix(5,
		[]trace.Reader{
			trace.Tag(0x1000, trace.Cyclic(0, 32, n/2)),
			trace.Tag(0x2000, trace.Cyclic(1<<30, 8000, n/2)),
		},
		[]float64{1, 1}), n)
	res := runRDX(t, testConfig(300), r)
	worst := res.Attribution.WorstLocality(1, 0)
	if len(worst) != 1 {
		t.Fatalf("WorstLocality returned %d pairs", len(worst))
	}
	if worst[0].Pair.UsePC != 0x2000 {
		t.Errorf("worst-locality pair = %+v, want the big sweep (0x2000)", worst[0].Pair)
	}
	// minWeight filter excludes everything when set absurdly high.
	if got := res.Attribution.WorstLocality(5, 1e18); len(got) != 0 {
		t.Errorf("WorstLocality with huge minWeight returned %d pairs", len(got))
	}
}

func TestAttributionCrossSitePairs(t *testing.T) {
	// Stencil kernels reuse across sites: the (x+1,y) load (site 2) is
	// reused as the (x,y) load (site 0) one iteration later. Attribution
	// must surface cross-site pairs, not only same-site ones.
	cfg := testConfig(50)
	res := runRDX(t, cfg, trace.Tag(0x1000, trace.Stencil2D(0, 64, 512, 1)))
	cross := 0
	for _, p := range res.Attribution {
		if p.Pair.UsePC != p.Pair.ReusePC {
			cross++
		}
	}
	if cross == 0 {
		t.Errorf("no cross-site pairs in stencil attribution: %+v", res.Attribution.TopWeight(8))
	}
}

func TestAttributionEmptyForStreaming(t *testing.T) {
	res := runRDX(t, testConfig(500), trace.Sequential(0, 100000, 8))
	if len(res.Attribution) != 0 {
		t.Errorf("streaming produced %d attribution pairs, want 0", len(res.Attribution))
	}
}

func TestHistogramForPair(t *testing.T) {
	const n = 200000
	r := trace.Limit(trace.Mix(5,
		[]trace.Reader{
			trace.Tag(0x1000, trace.Cyclic(0, 64, n/2)),
			trace.Tag(0x2000, trace.Cyclic(1<<30, 5000, n/2)),
		},
		[]float64{1, 1}), n)
	p, err := NewProfiler(testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(r, cpumodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	key := PairKey{UsePC: 0x1000, ReusePC: 0x1000}
	h := histogramForPair(p.times, resultWeightsForTest(p), p.pcs, key, float64(p.cfg.SamplePeriod), func(t uint64) uint64 { return t })
	if h.Total() == 0 {
		t.Fatal("per-pair histogram empty")
	}
	if h.Total() >= res.ReuseTime.Total() {
		t.Error("per-pair histogram should be a strict subset of the full histogram")
	}
}

// resultWeightsForTest reconstructs unit weights (Result consumed the
// real ones); adequate for exercising histogramForPair.
func resultWeightsForTest(p *Profiler) []float64 {
	w := make([]float64, len(p.times))
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestAttributionJSON: an attribution round-trips through JSON
// bit-exactly, unknown fields (strings holding brackets included) are
// skipped, and an array holding anything but shallow objects is refused
// before its elements are allocated.
func TestAttributionJSON(t *testing.T) {
	in := Attribution{
		{Pair: PairKey{UsePC: 0x401000, ReusePC: 0x401040}, Count: 3, Weight: 24576.5, MeanDistance: 17.25, MinTime: 9, MaxTime: 4096},
		{Pair: PairKey{UsePC: 0x402000, ReusePC: 0x401000}, Count: 1, Weight: 8192, MeanDistance: 1e-300, MinTime: 1 << 40, MaxTime: 1<<64 - 1},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Attribution
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed the attribution:\n in=%+v\nout=%+v", in, out)
	}
	if err := json.Unmarshal([]byte(` [ {"Count":2,"Note":"}]{[\"\\"} , {"Count":3} ] `), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Count != 2 || out[1].Count != 3 {
		t.Fatalf("decoded %+v", out)
	}
	if err := json.Unmarshal([]byte(`null`), &out); err != nil || out != nil {
		t.Fatalf("null decoded to %+v, %v", out, err)
	}
	for _, bad := range []string{
		`[0,0,0]`,
		`[{},1]`,
		`[{},[]]`,
		`[{}, null]`,
		`["",""]`,
		`[{},"x"]`,
		`["{}"]`,
		`{"Count":1}`,
		`7`,
		`[{"a":{"b":{"c":{"d":{}}}}}]`,
		`[{"a":[[[[[]]]]]}]`,
	} {
		if err := json.Unmarshal([]byte(bad), &out); err == nil {
			t.Errorf("%s decoded to %+v, want an error", bad, out)
		}
		// The default decoder refuses these too, but only after growing
		// the slice element by element: the scan must refuse them first.
		if n, err := countObjects([]byte(bad)); err == nil {
			t.Errorf("%s counted as %d objects, want an error", bad, n)
		}
	}
}
