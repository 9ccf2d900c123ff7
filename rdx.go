// Package rdx is the public API of the RDX reproduction: featherlight
// reuse-distance measurement via hardware-counter sampling and debug
// registers (Wang, Liu, Chabbi — HPCA 2019), together with the simulated
// CPU substrate, exhaustive ground-truth measurement, synthetic SPEC-
// CPU2017-style workloads and cache-analysis helpers the evaluation uses.
//
// # Quick start
//
//	stream, _ := rdx.Workload("mcf", 1, 10_000_000) // or any rdx.Reader
//	result, err := rdx.New().Profile(ctx, stream)
//	if err != nil { ... }
//	fmt.Println(result.ReuseDistance) // log2 reuse-distance histogram
//
// New builds a Session; Profile runs the stream on a simulated core
// whose PMU samples memory accesses and whose debug registers catch the
// reuses — no access is instrumented. Options select everything else
// while keeping results bit-identical:
//
//	rdx.New(rdx.WithConfig(cfg))                     // custom operating point
//	rdx.New(rdx.WithRemote("host:9090"))             // profile on an rdxd daemon
//	rdx.New(rdx.WithRemote("host:9090"),
//	        rdx.WithRetry(rdx.RetryPolicy{MaxAttempts: 12})) // tune its fault tolerance
//	rdx.New(rdx.WithRemote("a:9090,b:9090,c:9090"))  // shard threads across a fleet
//
// Session.ProfileThreads profiles multithreaded programs (one stream
// per thread, merged program-level histograms); with several remotes
// the streams shard across the backends with health-checked failover.
// Exact measures a stream exhaustively (Olken's algorithm) for ground
// truth; Accuracy compares the two histograms the way the paper does.
package rdx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Core vocabulary, re-exported from the internal packages so downstream
// code needs only this import.
type (
	// Addr is a virtual byte address.
	Addr = mem.Addr
	// Access is one dynamic memory access.
	Access = mem.Access
	// Kind distinguishes loads from stores.
	Kind = mem.Kind
	// Granularity is the power-of-two block size of measurement.
	Granularity = mem.Granularity
	// Reader is a stream of memory accesses (the profiled "program").
	Reader = trace.Reader
	// Histogram is a weighted log2 histogram of distances or times.
	Histogram = histogram.Histogram
	// Config configures the RDX profiler.
	Config = core.Config
	// Result is the output of one profiling session.
	Result = core.Result
	// ReplacementPolicy selects watchpoint replacement behaviour.
	ReplacementPolicy = core.ReplacementPolicy
	// PairKey identifies a use→reuse pair of code sites.
	PairKey = core.PairKey
	// PairStat aggregates the reuses carried by one code pair.
	PairStat = core.PairStat
	// Attribution is the per-code-pair breakdown of a profile.
	Attribution = core.Attribution
	// MultiResult is the merged outcome of profiling several threads.
	MultiResult = core.MultiResult
	// Costs is the cycle-cost model used for overhead accounting.
	Costs = cpumodel.Costs
)

// Access kinds.
const (
	Load  = mem.Load
	Store = mem.Store
)

// Measurement granularities.
const (
	ByteGranularity = mem.ByteGranularity
	WordGranularity = mem.WordGranularity
	LineGranularity = mem.LineGranularity
)

// Watchpoint replacement policies.
const (
	ReplaceProbabilistic = core.ReplaceProbabilistic
	ReplaceReservoir     = core.ReplaceReservoir
	ReplaceAlways        = core.ReplaceAlways
	ReplaceNever         = core.ReplaceNever
	ReplaceHybrid        = core.ReplaceHybrid
)

// Infinite is the reuse distance recorded for cold (first-touch)
// accesses.
const Infinite = histogram.Infinite

// DefaultConfig returns the paper-style featherlight operating point:
// 64K mean sampling period, 4 watchpoints, word granularity,
// probabilistic replacement with censored-observation redistribution,
// footprint conversion on.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCosts returns the calibrated cycle-cost table used for modelled
// overhead accounting.
func DefaultCosts() Costs { return cpumodel.Default() }

// Remote profiling against an rdxd daemon (cmd/rdxd), selected with
// WithRemote. A remote session streams the access batches over the wire
// protocol and returns a result bit-identical to a local Session.Profile
// on the same stream and config.
type (
	// RemoteResult is the serializable profile an rdxd daemon returns:
	// the same histograms, counters and attribution as Result, in
	// wire/JSON form.
	RemoteResult = wire.Result
	// RemoteOptions tunes a remote session (batch size).
	RemoteOptions = wire.ProfileOptions
	// RetryPolicy tunes WithRetry's fault handling: attempts, backoff,
	// per-RPC timeouts, sync cadence.
	RetryPolicy = wire.RetryPolicy
)

// ResultToRemote converts a locally produced Result into the wire form,
// so local and remote profiles can share reporting code.
func ResultToRemote(res *Result) *RemoteResult { return wire.FromCore(res, true) }

// ExactResult is the ground-truth measurement of a stream.
type ExactResult struct {
	// ReuseDistance and ReuseTime are the exact histograms.
	ReuseDistance *Histogram
	ReuseTime     *Histogram
	// Accesses is the stream length; DistinctBlocks its footprint.
	Accesses       uint64
	DistinctBlocks uint64
	// StateBytes is the profiler state the exhaustive approach had to
	// hold (the "memory bloat" RDX avoids).
	StateBytes uint64
}

// Exact measures a stream exhaustively with Olken's algorithm — the
// ground truth RDX is evaluated against, at the classic
// instrument-every-access cost.
func Exact(r Reader, g Granularity) (*ExactResult, error) {
	p, err := exact.Measure(r, g)
	if err != nil {
		return nil, fmt.Errorf("rdx: exact measurement: %w", err)
	}
	return &ExactResult{
		ReuseDistance:  p.ReuseDistance(),
		ReuseTime:      p.ReuseTime(),
		Accesses:       p.Accesses(),
		DistinctBlocks: p.DistinctBlocks(),
		StateBytes:     p.StateBytes(),
	}, nil
}

// ExactParallel is Exact fanned out over contiguous trace shards on a
// bounded worker pool (workers <= 0 selects GOMAXPROCS) with an exact
// sequential merge: the histograms are bit-identical to Exact's for any
// worker count, but multi-billion-access traces measure at multicore
// speed.
func ExactParallel(r Reader, g Granularity, workers int) (*ExactResult, error) {
	p, err := exact.MeasureParallel(r, g, exact.ParallelOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("rdx: exact measurement: %w", err)
	}
	return &ExactResult{
		ReuseDistance:  p.ReuseDistance(),
		ReuseTime:      p.ReuseTime(),
		Accesses:       p.Accesses(),
		DistinctBlocks: p.DistinctBlocks(),
		StateBytes:     p.StateBytes(),
	}, nil
}

// Accuracy compares two reuse histograms as the paper does: one minus
// the total-variation distance of the normalized distributions (1.0 =
// identical shapes).
func Accuracy(a, b *Histogram) float64 { return histogram.Accuracy(a, b) }

// Workload builds the access stream of one named SPEC-CPU2017-style
// suite benchmark (see WorkloadNames), with exactly n accesses.
func Workload(name string, seed, n uint64) (Reader, error) {
	return workloads.Build(name, seed, n)
}

// WorkloadNames lists the benchmark suite.
func WorkloadNames() []string { return workloads.Names() }

// Stream generator re-exports: build custom profiled programs without
// touching internal packages.
var (
	// Sequential streams linearly: count accesses from base with the
	// given stride in bytes.
	Sequential = trace.Sequential
	// Cyclic loops over a working set of words.
	Cyclic = trace.Cyclic
	// RandomUniform draws uniformly from a region of words.
	RandomUniform = trace.RandomUniform
	// ZipfAccess draws from a Zipf popularity distribution.
	ZipfAccess = trace.ZipfAccess
	// PointerChase follows a random cyclic permutation.
	PointerChase = trace.PointerChase
	// FromSlice adapts a slice of accesses to a Reader.
	FromSlice = trace.FromSlice
	// Tag rebases the program counters of a stream (for attribution).
	Tag = trace.Tag
	// MatMulBlocked emits a blocked matrix multiply's address stream.
	MatMulBlocked = trace.MatMulBlocked
	// Stencil2D emits a 5-point stencil sweep's address stream.
	Stencil2D = trace.Stencil2D
	// Concat, Limit and Mix compose streams.
	Concat = trace.Concat
	Limit  = trace.Limit
	Mix    = trace.Mix
)
