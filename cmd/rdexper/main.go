// Command rdexper regenerates the paper's evaluation: every table and
// figure listed in DESIGN.md, with paper-vs-measured bands recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	rdexper -exp all                 # the full evaluation
//	rdexper -exp T2,F4,F5            # selected experiments
//	rdexper -n 16777216 -period 32768 -exp T2
//	rdexper -list
//
// Throughput is measured by the perfbench module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		n      = flag.Uint64("n", 4<<20, "accesses per workload run")
		period = flag.Uint64("period", 8<<10, "default RDX sampling period")
		seed   = flag.Uint64("seed", 1, "random seed")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{
		Accesses: *n,
		Period:   *period,
		Seed:     *seed,
		Out:      os.Stdout,
	}

	start := time.Now()
	if strings.EqualFold(*exp, "all") {
		if _, err := experiments.RunAll(opts); err != nil {
			fatal(err)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, err := experiments.Run(id, opts); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdexper:", err)
	os.Exit(1)
}
