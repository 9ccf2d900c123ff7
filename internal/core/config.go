// Package core implements RDX, the paper's contribution: a
// reuse-distance profiler that performs no instrumentation, combining
// PMU overflow sampling (to pick random accesses and capture their
// effective addresses) with hardware debug registers (to catch the next
// access to a sampled address) and converting the measured reuse times
// into reuse distances via footprint theory.
package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pmu"
)

// ReplacementPolicy decides what RDX does with a new PMU sample when all
// debug registers are armed.
type ReplacementPolicy int

const (
	// ReplaceProbabilistic admits a new sample arriving at a full
	// register file with fixed probability Config.ReplaceProb, evicting
	// a uniformly random armed watchpoint. The constant rate balances
	// arming throughput (always-replace's strength) against letting
	// long-pending watchpoints survive to completion (never-replace's
	// strength); the evictions it does perform are reported as
	// right-censored observations and redistributed, so they cost
	// variance rather than bias. This is the default (ablation A1
	// compares all four policies).
	ReplaceProbabilistic ReplacementPolicy = iota
	// ReplaceReservoir admits the new sample with probability k/(i+k)
	// (Vitter's algorithm R over the i samples seen while full),
	// evicting a uniformly random armed watchpoint. The armed set stays
	// a uniform sample of sampled addresses, but the decaying admission
	// rate means only O(k·log(samples)) watchpoints ever arm.
	ReplaceReservoir
	// ReplaceAlways always evicts a random armed watchpoint for the new
	// sample: maximum arming throughput, but watchpoints pending longer
	// than a few periods almost never survive.
	ReplaceAlways
	// ReplaceNever drops new samples while all registers are armed:
	// every armed watchpoint completes, but arming stalls whenever the
	// file is clogged by long-pending watchpoints.
	ReplaceNever
	// ReplaceHybrid dedicates register 0 as an always-replace express
	// lane — every sample arriving at a full file evicts it — while the
	// remaining registers hold their watchpoints until completion.
	// Short reuse times (shorter than the sampling period) resolve at
	// the full sampling rate through the express lane; the patient
	// registers complete the long reuse times that give the censored
	// express mass somewhere to be redistributed.
	ReplaceHybrid
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceProbabilistic:
		return "probabilistic"
	case ReplaceReservoir:
		return "reservoir"
	case ReplaceAlways:
		return "always"
	case ReplaceNever:
		return "never"
	case ReplaceHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// Config configures an RDX profiler. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// SamplePeriod is the mean number of memory accesses between PMU
	// samples. The paper's featherlight operating point is tens of
	// thousands to millions of accesses per sample.
	SamplePeriod uint64
	// RandomizePeriod jitters inter-sample gaps uniformly in
	// [P/2, 3P/2) to avoid resonating with periodic access patterns.
	RandomizePeriod bool
	// NumWatchpoints is the number of hardware debug registers available
	// (4 on x86).
	NumWatchpoints int
	// WatchWidth is the width in bytes of each armed watchpoint (max 8,
	// the hardware limit).
	WatchWidth uint8
	// Granularity is the block size at which reuse is reported. When it
	// exceeds the watchpoint width, a trap on the watched word is taken
	// as a reuse of its enclosing block (the paper's same-word
	// approximation for cache-line granularity). It is at most 12
	// (4 KiB blocks).
	Granularity mem.Granularity
	// Replacement is the watchpoint replacement policy.
	Replacement ReplacementPolicy
	// ReplaceProb is the per-sample admission probability used by
	// ReplaceProbabilistic (ignored by other policies).
	ReplaceProb float64
	// Event selects which accesses the PMU samples (reuse time is always
	// measured in all accesses).
	Event pmu.EventSelect
	// Skid is the maximum sample skid in accesses (0 = precise/PEBS).
	Skid int
	// ConvertDistances enables the footprint-theory conversion from
	// reuse times to reuse distances. When false, Result.ReuseDistance
	// reports raw reuse times (ablation A2's strawman).
	ConvertDistances bool
	// BiasCorrection redistributes the censored observations to the
	// right (redistributeCensored, the Kaplan-Meier estimator in
	// redistribution form). Replacement censors long reuse times: a
	// watchpoint evicted after E accesses only says its reuse time
	// exceeds E. Each such observation's unit weight is spread over the
	// completed and end-of-run censored observations longer than E, and
	// weight with no longer observation to go to is reported as cold.
	// When false, completed pairs keep unit weight, watchpoints still
	// armed at the end count as cold, and evicted samples are dropped
	// (ablation A5 measures the effect). Either way the total weight is
	// then scaled to the access count.
	BiasCorrection bool
	// Seed makes the profiler's randomness (period jitter, reservoir)
	// deterministic.
	Seed uint64
}

// DefaultConfig returns the default operating point: 64K-access mean
// sampling period with randomization (the paper's featherlight regime),
// 4 watchpoints of width 8, word granularity, probabilistic replacement
// with censored-observation redistribution.
func DefaultConfig() Config {
	return Config{
		SamplePeriod:     64 << 10,
		RandomizePeriod:  true,
		NumWatchpoints:   4,
		WatchWidth:       8,
		Granularity:      mem.WordGranularity,
		Replacement:      ReplaceProbabilistic,
		ReplaceProb:      0.1,
		Event:            pmu.AllAccesses,
		ConvertDistances: true,
		BiasCorrection:   true,
		Seed:             1,
	}
}

// maxGranularity is the coarsest measurement block: a 4 KiB page.
const maxGranularity mem.Granularity = 12

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SamplePeriod == 0 {
		return fmt.Errorf("core: SamplePeriod must be positive")
	}
	if c.NumWatchpoints <= 0 {
		return fmt.Errorf("core: NumWatchpoints must be positive, got %d", c.NumWatchpoints)
	}
	switch c.WatchWidth {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("core: WatchWidth must be 1, 2, 4 or 8, got %d", c.WatchWidth)
	}
	if c.Granularity > maxGranularity {
		return fmt.Errorf("core: Granularity must be at most %d (4 KiB blocks), got %d", maxGranularity, c.Granularity)
	}
	if c.Replacement < ReplaceProbabilistic || c.Replacement > ReplaceHybrid {
		return fmt.Errorf("core: unknown Replacement policy %d", c.Replacement)
	}
	if c.Skid < 0 {
		return fmt.Errorf("core: Skid must be non-negative, got %d", c.Skid)
	}
	if c.Replacement == ReplaceProbabilistic && (c.ReplaceProb < 0 || c.ReplaceProb > 1) {
		return fmt.Errorf("core: ReplaceProb must be in [0,1], got %v", c.ReplaceProb)
	}
	return nil
}
