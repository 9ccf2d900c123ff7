// Command perfbench is the RDX benchmark. Every run drives the system
// from outside, through its public functions, in three phases on the
// same suite kernels:
//
//   - local-suite: the kernels profiled in process as the threads of
//     one rdx.Session.ProfileThreads run, checked against the exact
//     oracle;
//   - stream-steady: long resilient sessions streaming the kernels to an
//     in-process daemon on loopback, with a timed Sync every 32 batches;
//   - session-churn: many short sessions, each opened, fed, synced,
//     asked a live and a final POST /whatif, and finished.
//
// The workloads are local-suite and stream-steady. The one named by
// --workload gets the measured window of --seconds; the other phases run
// a fixed quota, so every metric is measured in every run. The
// session-churn phase, whose metrics are latencies, is not a workload of
// its own: its fixed quota in every run is all it needs, and one more
// workload would not fit the time the runs of the benchmark are allowed.
// The last line of standard output is one JSON
// object holding every end-to-end metric, or with --trace 1 every
// per-layer metric. Run it from the repository root:
//
//	bash perfbench/run.sh --workload stream-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// workloadSpec describes one workload; why is its line in
// BENCHMARK.json. WORKLOADS.md records the same facts with the
// layer-to-metric mapping.
type workloadSpec struct {
	name   string
	why    string
	period uint64
}

var workloadSpecs = []workloadSpec{
	{"local-suite", "lbm,mcf,xalancbmk,exchange2 x16 threads in one ProfileThreads, period 8192, nproc workers: cpu/pmu/debugreg, core and merge do the work; wire and server none", localPeriod},
	{"stream-steady", "same kernels, whole-trace resilient sessions at period 65536, nproc loops, Sync every 32 batches: encode, framing/CRC, decode, executor, checkpoints dominate", streamPeriod},
}

// phases are the parts of every run: the workloads and session-churn.
var phases = []string{"local-suite", "stream-steady", "session-churn"}

func lookupWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"accesses_per_s", "1/s", "higher"},
	{"accuracy_mean", "ratio", "higher"},
	{"accuracy_min", "ratio", "higher"},
	{"model_time_ovh_pct", "%", "lower"},
	{"model_mem_ovh_pct", "%", "lower"},
	{"sync_p50_ms", "ms", "lower"},
	{"sync_p90_ms", "ms", "lower"},
	{"wire_bytes_per_access", "B", "lower"},
	{"session_p50_ms", "ms", "lower"},
	{"session_p90_ms", "ms", "lower"},
	{"whatif_p50_ms", "ms", "lower"},
	{"whatif_p90_ms", "ms", "lower"},
	{"alloc_bytes_per_access", "B", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricSpec{
	{"wire.encode_ns_per_access", "ns", "lower"},
	{"wire.frame_crc_ns_per_batch", "ns", "lower"},
	{"wire.decode_ns_per_access", "ns", "lower"},
	{"wire.bytes_per_access", "B", "lower"},
	{"wire.allocs_per_batch", "count", "lower"},
	{"cpu.execute_ns_per_access", "ns", "lower"},
	{"pmu.samples", "count", "higher"},
	{"debugreg.traps", "count", "higher"},
	{"debugreg.armed_ratio", "ratio", "higher"},
	{"debugreg.evicted_ratio", "ratio", "lower"},
	{"core.reuse_pairs_per_sample", "ratio", "higher"},
	{"core.snapshot_us", "us", "lower"},
	{"core.checkpoint_us", "us", "lower"},
	{"core.checkpoint_bytes", "B", "lower"},
	{"core.restore_us", "us", "lower"},
	{"mrc.whatif_us", "us", "lower"},
	{"core.merge_us", "us", "lower"},
	{"exact.ns_per_access", "ns", "lower"},
	{"server.open_ms", "ms", "lower"},
	{"server.finish_ms", "ms", "lower"},
	{"server.cpu_us_per_batch", "us", "lower"},
	{"server.residual_us_per_batch", "us", "lower"},
	{"server.checkpoints_per_batch", "ratio", "lower"},
	{"server.peak_queue_depth", "count", "lower"},
	{"server.executor_steal_ratio", "ratio", "lower"},
	{"session.allocs_per_session", "count", "lower"},
	{"stream.allocs_per_batch", "count", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to measure: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	traceLevel := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.spanDir, "span-dir", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if lookupWorkload(o.workload) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o.trace = *traceLevel == 1

	res, err := runBench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
