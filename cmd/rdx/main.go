// Command rdx profiles one suite workload (or a recorded trace) with
// RDX — in-process or against an rdxd daemon — and prints reuse
// histograms, overheads and accuracy.
//
// Usage:
//
//	rdx -workload mcf -n 4194304 -period 8192 [-exact] [-granularity word]
//	rdx -trace run.rdt -remote 127.0.0.1:9127
//	rdx -workload mcf -remote 127.0.0.1:9127 -retry 12 -dial-timeout 5s
//	rdx -workload mcf -remote a:9127=a:9128,b:9127=b:9128
//	rdx -workload mcf -json > profile.json
//	rdx diff baseline.json compared.json
//	rdx -list
//
// With -remote the access stream is generated (or replayed) locally and
// streamed to the daemon; the report is identical to local mode because
// the daemon runs the identical engine. Every remote session is
// fault-tolerant: it reconnects with exponential backoff, resumes from
// the daemon's checkpoint, replays unacknowledged batches, and follows
// a draining daemon's migration redirect; -retry N bounds the
// consecutive failed attempts (default 8) and -dial-timeout each
// connection attempt. -remote also accepts a comma-separated
// backend list, each "addr" or "addr=adminaddr"; with several backends
// the session is dispatched through the health-checked pool (admin
// addresses enable /healthz probing and load-aware routing), and a
// backend dying mid-run fails over to the others.
//
// -json output is the versioned rdx.report/v1 envelope (see
// internal/report), the same schema the daemon's /whatif endpoint
// returns and `rdx diff` consumes; pre-versioning schema-less reports
// stay readable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	var (
		workload    = flag.String("workload", "mcf", "suite workload to profile (see -list)")
		tracePath   = flag.String("trace", "", "replay this recorded RDT3 trace file instead of a generated workload")
		n           = flag.Uint64("n", 4<<20, "number of memory accesses to execute")
		period      = flag.Uint64("period", 8<<10, "mean sampling period in accesses")
		nwp         = flag.Int("watchpoints", 4, "number of hardware debug registers")
		seed        = flag.Uint64("seed", 1, "random seed for workload and profiler")
		gran        = flag.String("granularity", "word", "measurement granularity: byte, word or line")
		runExact    = flag.Bool("exact", false, "also run the exhaustive ground-truth tool and report accuracy")
		pairs       = flag.Int("pairs", 0, "print the top N use→reuse code pairs by weight")
		jsonOut     = flag.Bool("json", false, "emit the machine-readable result (histograms, counters, overheads, accuracy) to stdout instead of the report")
		jsonFile    = flag.String("json-file", "", "additionally write the machine-readable result to this file")
		remote      = flag.String("remote", "", "profile via rdxd instead of in-process: one daemon address, or a comma-separated pool (each \"addr\" or \"addr=adminaddr\")")
		retry       = flag.Int("retry", 0, "with -remote: give up after N consecutive failed connection attempts or RPCs (0 = the default, 8)")
		dialTimeout = flag.Duration("dial-timeout", 10*time.Second, "with -remote: timeout for each connection attempt")
		mrcOut      = flag.Bool("mrc", false, "print the profile's predicted miss-ratio curve over cache size")
		whatIf      = flag.String("whatif", "", "answer a cache what-if question (e.g. \"l2.size=2x\", \"l1.ways=4,llc.size=64MiB\") against the typical three-level hierarchy")
		list        = flag.Bool("list", false, "list available workloads and exit")
		drain       = flag.String("drain", "", "control verb: drain the rdxd at this admin address (migrating its sessions to -to) and wait until it is empty, then exit")
		drainTo     = flag.String("to", "", "with -drain: comma-separated migration destinations, each \"addr\" or \"addr=adminaddr\"; empty stops new sessions but migrates nothing")
		drainWait   = flag.Duration("drain-wait", time.Minute, "with -drain: how long to wait for the backend to empty")
	)
	flag.Parse()

	if *list {
		for _, name := range rdx.WorkloadNames() {
			fmt.Println(name)
		}
		return
	}

	if *drain != "" {
		var targets []string
		for _, t := range strings.Split(*drainTo, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := drainBackend(ctx, *drain, targets); err != nil {
			fatal(err)
		}
		fmt.Printf("drained %s: zero live sessions\n", *drain)
		return
	}

	g, err := parseGranularity(*gran)
	if err != nil {
		fatal(err)
	}

	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = *period
	cfg.NumWatchpoints = *nwp
	cfg.Granularity = g
	cfg.Seed = *seed

	// openStream is callable more than once (-exact needs a second pass).
	openStream := func() rdx.Reader {
		if *tracePath != "" {
			f, err := os.Open(*tracePath)
			if err != nil {
				fatal(err)
			}
			r, err := trace.NewReader(f)
			if err != nil {
				fatal(err)
			}
			return r
		}
		stream, err := rdx.Workload(*workload, *seed, *n)
		if err != nil {
			fatal(err)
		}
		return stream
	}
	source := *workload
	if *tracePath != "" {
		source = *tracePath
	}

	sessOpts := []rdx.Option{rdx.WithConfig(cfg)}
	if *remote != "" {
		sessOpts = append(sessOpts, rdx.WithRemote(*remote),
			rdx.WithRetry(rdx.RetryPolicy{MaxAttempts: *retry, DialTimeout: *dialTimeout, Seed: *seed}))
	}
	local, err := rdx.New(sessOpts...).Profile(context.Background(), openStream())
	if err != nil {
		fatal(err)
	}
	res := rdx.ResultToRemote(local)

	out := report.New(source, *remote, res)
	if *mrcOut {
		out.MRC = local.MissRatioCurve(rdx.SizeSweep{})
	}
	if *whatIf != "" {
		rep, err := local.WhatIf(rdx.TypicalHierarchy(), *whatIf, rdx.SizeSweep{})
		if err != nil {
			fatal(err)
		}
		out.WhatIf = rep
	}
	if *runExact {
		gt, err := rdx.Exact(openStream(), g)
		if err != nil {
			fatal(err)
		}
		acc := rdx.Accuracy(res.ReuseDistance, gt.ReuseDistance)
		out.Accuracy = &acc
		out.GroundTruth = gt.ReuseDistance
		out.DistinctBlocks = gt.DistinctBlocks
	}

	if *jsonFile != "" {
		if err := writeJSONFile(*jsonFile, out); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	printReport(out, *pairs)
	if *jsonFile != "" {
		fmt.Printf("\nwrote JSON profile to %s\n", *jsonFile)
	}
}

func printReport(out *report.Report, pairs int) {
	res := out.Result
	where := "local"
	if out.Remote != "" {
		where = "rdxd @ " + out.Remote
	}
	fmt.Printf("%s (%s): %d accesses, period %d, %d watchpoints, %s granularity\n",
		out.Source, where, res.Accesses, res.Config.SamplePeriod, res.Config.NumWatchpoints, res.Config.Granularity)
	fmt.Printf("samples=%d armed=%d traps=%d reuse-pairs=%d cold=%d dropped=%d\n",
		res.Samples, res.ArmedSamples, res.Traps, res.ReusePairs, res.ColdSamples, res.Dropped)
	fmt.Printf("modelled time overhead: %.2f%%\n", 100*res.TimeOverhead)
	fmt.Printf("\nRDX reuse-distance histogram:\n%s", res.ReuseDistance)

	if pairs > 0 {
		fmt.Printf("\ntop %d use→reuse code pairs (by carried weight):\n", pairs)
		fmt.Printf("%-12s %-12s %10s %12s %12s\n", "use PC", "reuse PC", "count", "mean RD", "weight")
		for _, p := range res.Attribution.TopWeight(pairs) {
			fmt.Printf("%#-12x %#-12x %10d %12.0f %12.0f\n",
				uint64(p.Pair.UsePC), uint64(p.Pair.ReusePC), p.Count, p.MeanDistance, p.Weight)
		}
	}

	if out.MRC != nil {
		fmt.Printf("\npredicted miss-ratio curve:\n%s", out.MRC)
	}
	if out.WhatIf != nil {
		fmt.Printf("\n%s", out.WhatIf)
	}

	if out.Accuracy != nil {
		fmt.Printf("\nground-truth reuse-distance histogram (%d distinct blocks):\n%s",
			out.DistinctBlocks, out.GroundTruth)
		fmt.Printf("\naccuracy: %.4f\n", *out.Accuracy)
	}
}

func writeJSONFile(path string, out *report.Report) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func parseGranularity(s string) (rdx.Granularity, error) {
	switch s {
	case "byte":
		return rdx.ByteGranularity, nil
	case "word":
		return rdx.WordGranularity, nil
	case "line":
		return rdx.LineGranularity, nil
	default:
		return 0, fmt.Errorf("unknown granularity %q (want byte, word or line)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdx:", err)
	os.Exit(1)
}
