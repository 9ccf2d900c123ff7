// phases shows phase-resolved profiling of a long-running program — the
// paper's motivating scenario is production software whose locality
// changes over time, which exhaustive tools are too slow to watch. The
// program here moves through three phases (initialization sweep, hot
// compute loop, scattered lookups); segmenting the stream and profiling
// each segment with RDX exposes the phase structure at featherlight
// cost, plus a multithreaded profile of all phases running concurrently.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	const perPhase = 1 << 20
	phases := []struct {
		name string
		mk   func() rdx.Reader
	}{
		{"init: streaming sweep", func() rdx.Reader {
			return rdx.Tag(0x100000, rdx.Sequential(0, perPhase, 8))
		}},
		{"compute: hot loop", func() rdx.Reader {
			return rdx.Tag(0x200000, rdx.Cyclic(1<<40, 30_000, perPhase))
		}},
		{"analyze: scattered lookups", func() rdx.Reader {
			return rdx.Tag(0x300000, rdx.ZipfAccess(7, 1<<41, 2_000_000, 0.8, perPhase))
		}},
	}

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 4 << 10

	fmt.Println("per-phase profiles (segmented featherlight profiling):")
	fmt.Printf("%-28s %-12s %-10s %-10s\n", "phase", "median RD", "cold%", "pairs")
	for _, ph := range phases {
		res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), ph.mk())
		if err != nil {
			log.Fatal(err)
		}
		med := "inf"
		if m := res.ReuseDistance.Percentile(0.5); !math.IsInf(m, 1) {
			med = fmt.Sprintf("%.0f", m)
		}
		fmt.Printf("%-28s %-12s %-10.1f %-10d\n", ph.name,
			med, 100*res.ReuseDistance.Cold()/res.ReuseDistance.Total(), res.ReusePairs)
	}

	// The same three phases as concurrent threads of one program.
	streams := make([]rdx.Reader, len(phases))
	for i, ph := range phases {
		streams[i] = ph.mk()
	}
	multi, err := rdx.New(rdx.WithConfig(cfg)).ProfileThreads(context.Background(), streams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged multithreaded profile: %d accesses, %d reuse pairs, worst-thread overhead %.2f%%\n",
		multi.Accesses, multi.ReusePairs, 100*multi.TimeOverhead())
	fmt.Printf("\nmerged reuse-distance histogram:\n%s", multi.ReuseDistance)
}
