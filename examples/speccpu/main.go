// speccpu reproduces the paper's headline application: characterizing
// the memory performance of a long-running SPEC-CPU2017-style suite with
// a featherlight tool. For each benchmark it reports the median reuse
// distance, the cold-access fraction, and how much of the access stream
// reaches past typical L1/L2/LLC capacities — all derived from RDX
// histograms alone, at a few percent modelled overhead.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"repro"
)

func main() {
	n := flag.Uint64("n", 4<<20, "accesses per benchmark")
	period := flag.Uint64("period", 8<<10, "RDX sampling period")
	flag.Parse()

	// Cache capacities in 8-byte words: 32 KiB L1, 1 MiB L2, 32 MiB LLC.
	const l1, l2, llc = 4 << 10, 128 << 10, 4 << 20

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = *period

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tmedian RD\tcold%\t>L1%\t>L2%\t>LLC%\tovh%")
	for _, name := range rdx.WorkloadNames() {
		stream, err := rdx.Workload(name, 1, *n)
		if err != nil {
			log.Fatal(err)
		}
		res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), stream)
		if err != nil {
			log.Fatal(err)
		}
		rd := res.ReuseDistance
		med := "inf"
		if m := rd.Percentile(0.5); !math.IsInf(m, 1) {
			med = fmt.Sprintf("%.0f", m)
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			name, med,
			100*rd.Cold()/rd.Total(),
			100*rd.FractionAbove(l1),
			100*rd.FractionAbove(l2),
			100*rd.FractionAbove(llc),
			100*res.TimeOverhead())
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
