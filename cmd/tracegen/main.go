// Command tracegen records suite workloads to the compact binary trace
// format, inspects recorded traces, and replays them through either
// profiler. It exists so experiments can be repeated bit-exactly on a
// frozen trace, decoupled from the generators.
//
// Usage:
//
//	tracegen record -workload gcc -n 1048576 -o gcc.trace
//	tracegen info  -i gcc.trace
//	tracegen profile -i gcc.trace [-exact]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "profile":
		profile(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracegen {record|info|profile} [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "mcf", "suite workload to record")
	n := fs.Uint64("n", 1<<20, "number of accesses")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "", "output trace file (required)")
	parse(fs, args)
	if *out == "" {
		fatal(fmt.Errorf("record: -o is required"))
	}

	stream, err := rdx.Workload(*workload, *seed, *n)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	count, err := trace.Record(f, stream)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d accesses of %s to %s (%d bytes, %.2f bytes/access)\n",
		count, *workload, *out, st.Size(), float64(st.Size())/float64(count))
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	parse(fs, args)
	r := openTrace(*in)

	var n, loads, stores uint64
	blocks := map[rdx.Addr]bool{}
	err := trace.ForEach(r, func(a rdx.Access) bool {
		n++
		if a.Kind == rdx.Load {
			loads++
		} else {
			stores++
		}
		blocks[rdx.WordGranularity.Block(a.Addr)] = true
		return true
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d accesses (%d loads, %d stores), %d distinct words (%.2f MiB footprint)\n",
		*in, n, loads, stores, len(blocks), float64(len(blocks))*8/(1<<20))
}

func profile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	period := fs.Uint64("period", 8<<10, "RDX sampling period")
	runExact := fs.Bool("exact", false, "run ground truth instead of RDX")
	parse(fs, args)

	if *runExact {
		gt, err := rdx.Exact(openTrace(*in), rdx.WordGranularity)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exact reuse-distance histogram (%d accesses, %d blocks):\n%s",
			gt.Accesses, gt.DistinctBlocks, gt.ReuseDistance)
		return
	}
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = *period
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), openTrace(*in))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("RDX reuse-distance histogram (%d samples, %d pairs):\n%s",
		res.Samples, res.ReusePairs, res.ReuseDistance)
}

func openTrace(path string) rdx.Reader {
	if path == "" {
		fatal(fmt.Errorf("-i is required"))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	return r
}

func parse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
