// cachetune shows RDX guiding a real optimization decision: choosing
// the blocking factor of a tiled matrix multiply. It profiles the
// multiply's address stream at several block sizes, predicts each
// variant's behavior across a full cache hierarchy — per-level miss
// ratios folded into one average memory access time — and picks the
// winner. A closing what-if asks whether doubling the L2 would have
// bought as much as the software fix: the workflow a performance
// engineer runs on a production binary where exhaustive tracing and
// simulator sweeps are unaffordable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/trace"
)

// hierarchy is the tuning target: a scaled three-level machine sized so
// a few-hundred-KiB matmul working set exercises every level.
func hierarchy() []rdx.CacheLevel {
	return []rdx.CacheLevel{
		{Name: "L1", Config: rdx.CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}},
		{Name: "L2", Config: rdx.CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}},
		{Name: "L3", Config: rdx.CacheConfig{SizeBytes: 2 << 20, LineBytes: 64, Ways: 0}},
	}
}

// Modelled hit latencies per level and for memory, in cycles.
var (
	levelLatency = []float64{4, 14, 40}
	memLatency   = 200.0
)

func main() {
	matrixN := flag.Int("matrix", 192, "matrix dimension N (three NxN float64 matrices)")
	flag.Parse()

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 4 << 10

	fmt.Printf("tuning %dx%d matmul over a 3-level hierarchy (L1 32KiB / L2 256KiB / L3 2MiB)\n\n",
		*matrixN, *matrixN)
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s\n", "block", "L1 miss%", "L2 miss%", "L3 miss%", "AMAT")

	best, bestAMAT := 0, 0.0
	var bestRes *rdx.Result
	for _, bs := range []int{8, 16, 32, 64, 128, *matrixN} {
		if bs > *matrixN {
			continue
		}
		stream := trace.MatMulBlocked(0, *matrixN, bs)
		res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), stream)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := res.PredictHierarchy(hierarchy())
		if err != nil {
			log.Fatal(err)
		}
		amat, err := pred.AMAT(levelLatency, memLatency)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d", bs)
		if bs == *matrixN {
			label = "none"
		}
		fmt.Printf("%-8s %-10.2f %-10.2f %-10.2f %-10.1f\n", label,
			100*pred.Levels[0].Local, 100*pred.Levels[1].Local, 100*pred.Levels[2].Local, amat)
		if best == 0 || amat < bestAMAT {
			bestAMAT, best, bestRes = amat, bs, res
		}
	}

	label := fmt.Sprintf("block size %d", best)
	if best == *matrixN {
		label = "no blocking"
	}
	fmt.Printf("\nrecommendation: %s (modelled AMAT %.1f cycles)\n", label, bestAMAT)

	// Would hardware have fixed it instead? Ask the best variant's
	// profile directly — no new profiling run needed.
	rep, err := bestRes.WhatIf(hierarchy(), "l2.size=2x", rdx.SizeSweep{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", rep)
}
