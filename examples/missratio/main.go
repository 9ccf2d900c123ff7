// missratio derives a full miss-ratio curve — the machine-independent
// "how would any LRU cache size serve this program" view — from one RDX
// profile, and validates selected points against an actual LRU cache
// simulation. One featherlight run replaces a simulator sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/cache"
)

func main() {
	name := flag.String("workload", "deepsjeng", "suite workload")
	n := flag.Uint64("n", 2<<20, "accesses to profile")
	flag.Parse()

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 4 << 10
	stream, err := rdx.Workload(*name, 1, *n)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), stream)
	if err != nil {
		log.Fatal(err)
	}

	// The whole curve from one profile: log-spaced capacities, miss
	// ratio at each, monotone by construction.
	curve := res.MissRatioCurve(rdx.SizeSweep{MinLines: 1 << 8, MaxLines: 1 << 20})
	fmt.Printf("miss-ratio curve for %s (from one RDX profile of %d accesses)\n\n%s\n",
		*name, *n, curve)

	// Spot-check selected capacities against a real LRU simulation at
	// word grain; curve.At interpolates between the sampled points.
	fmt.Printf("%-16s %-12s %-12s\n", "capacity(words)", "predicted%", "simulated%")
	for _, words := range []uint64{1 << 10, 1 << 14, 1 << 18} {
		stream, err := rdx.Workload(*name, 1, *n)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := cache.Simulate(stream, cache.Config{
			SizeBytes: words * 8,
			LineBytes: 8,
			Ways:      0,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16d %-12.2f %-12.2f\n", words, 100*curve.At(words), 100*sim)
	}
	fmt.Println("\n(predicted: stack-distance identity on the RDX histogram;")
	fmt.Println(" simulated: fully associative LRU reference)")
}
