package rdx_test

// Testable examples documenting the public API (go doc repro).

import (
	"context"
	"fmt"

	"repro"
)

// Example_profile measures the reuse-distance histogram of a small
// cyclic loop: every post-warmup access reuses at distance 99, which the
// log2 histogram reports in the [64,128) bucket.
func Example_profile() {
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 500

	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), rdx.Cyclic(0, 100, 500_000))
	if err != nil {
		fmt.Println(err)
		return
	}
	// All finite mass sits in the bucket containing distance 99.
	frac := res.ReuseDistance.Weight(7) / res.ReuseDistance.Total() // bucket [64,128)
	fmt.Printf("mass at distance ~99: %.2f\n", frac)
	// Output:
	// mass at distance ~99: 1.00
}

// Example_accuracy compares a featherlight profile against exhaustive
// ground truth, the way the paper's evaluation does.
func Example_accuracy() {
	mk := func() rdx.Reader { return rdx.ZipfAccess(7, 0, 4096, 1.0, 400_000) }

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 400
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), mk())
	if err != nil {
		fmt.Println(err)
		return
	}
	gt, err := rdx.Exact(mk(), rdx.WordGranularity)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("accuracy above 0.9: %v\n", rdx.Accuracy(res.ReuseDistance, gt.ReuseDistance) > 0.9)
	// Output:
	// accuracy above 0.9: true
}

// Example_missRatio predicts LRU cache behaviour from one profile: a
// 700-word working set misses a 512-word cache and fits a 1024-word one.
func Example_missRatio() {
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 500
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), rdx.Cyclic(0, 700, 700_000))
	if err != nil {
		fmt.Println(err)
		return
	}
	curve := res.MissRatioCurve(rdx.SizeSweep{})
	fmt.Printf("512-word cache thrashes: %v\n", curve.At(512) > 0.9)
	fmt.Printf("1024-word cache fits:    %v\n", curve.At(1024) < 0.1)
	// Output:
	// 512-word cache thrashes: true
	// 1024-word cache fits:    true
}

// Example_attribution finds the code pair carrying the worst locality:
// the big sweep at PC 0x2000, not the hot loop at PC 0x1000.
func Example_attribution() {
	const n = 400_000
	stream := rdx.Limit(rdx.Mix(3,
		[]rdx.Reader{
			rdx.Tag(0x1000, rdx.Cyclic(0, 64, n)),
			rdx.Tag(0x2000, rdx.Cyclic(1<<40, 9_000, n)),
		},
		[]float64{1, 1}), n)

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 300
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), stream)
	if err != nil {
		fmt.Println(err)
		return
	}
	worst := res.Attribution.WorstLocality(1, res.Attribution[0].Weight/50)
	fmt.Printf("worst-locality code: %#x\n", uint64(worst[0].Pair.UsePC))
	// Output:
	// worst-locality code: 0x2000
}
