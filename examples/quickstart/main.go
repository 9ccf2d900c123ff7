// Quickstart: profile a synthetic program with RDX and compare against
// exhaustive ground truth — the library's core loop in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// The "program" is any access stream. Here: a loop over a 1 MiB
	// array mixed with Zipf-distributed lookups into an 8 MiB table —
	// a two-plateau locality profile.
	const n = 2 << 20
	program := func() rdx.Reader {
		return rdx.Limit(rdx.Mix(42,
			[]rdx.Reader{
				rdx.Cyclic(0, 100_000, n),                 // ~800KiB hot array
				rdx.ZipfAccess(7, 1<<30, 900_000, 1.1, n), // ~7MiB Zipf table
				rdx.PointerChase(9, 1<<31, 50_000, n),     // linked structure
			},
			[]float64{5, 3, 2}), n)
	}

	// Featherlight profile: PMU sampling + debug registers, no
	// instrumentation. The period is scaled to the short demo run.
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 2 << 10
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), program())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RDX: %d samples, %d reuse pairs, modelled overhead %.2f%%\n",
		res.Samples, res.ReusePairs, 100*res.TimeOverhead())
	fmt.Printf("\nRDX reuse-distance histogram:\n%s", res.ReuseDistance)

	// Ground truth via exhaustive (Olken) measurement.
	gt, err := rdx.Exact(program(), rdx.WordGranularity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGround truth (%d distinct words, %0.1f MiB of profiler state):\n%s",
		gt.DistinctBlocks, float64(gt.StateBytes)/(1<<20), gt.ReuseDistance)

	fmt.Printf("\naccuracy: %.4f\n", rdx.Accuracy(res.ReuseDistance, gt.ReuseDistance))
}
