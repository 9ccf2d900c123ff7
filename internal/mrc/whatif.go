package mrc

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/histogram"
)

// ParseSpec parses a what-if specification against a base hierarchy and
// returns the modified hierarchy. A spec is a comma-separated list of
// clauses of the form
//
//	level.param=value
//
// where level names a hierarchy level case-insensitively ("l2", "LLC"),
// param is one of
//
//	size — capacity: a multiplier ("2x", "0.5x") or an absolute size
//	       with an optional binary suffix ("256KiB", "1MiB", "64KB",
//	       "4096")
//	ways — associativity: an integer, or "full"/"fa" for fully
//	       associative
//	line — line size in bytes
//
// e.g. "l2.size=2x" or "l1.ways=4,llc.size=64MiB". The base is not
// mutated; every modified level is re-validated.
func ParseSpec(spec string, base []cache.LevelSpec) ([]cache.LevelSpec, error) {
	out := make([]cache.LevelSpec, len(base))
	copy(out, base)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("mrc: empty what-if spec")
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		eq := strings.IndexByte(clause, '=')
		if eq < 0 {
			return nil, fmt.Errorf("mrc: clause %q: want level.param=value", clause)
		}
		key, val := strings.TrimSpace(clause[:eq]), strings.TrimSpace(clause[eq+1:])
		dot := strings.IndexByte(key, '.')
		if dot < 0 {
			return nil, fmt.Errorf("mrc: clause %q: want level.param=value", clause)
		}
		level, param := key[:dot], key[dot+1:]
		idx := -1
		for i, s := range out {
			if strings.EqualFold(s.Name, level) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("mrc: clause %q: no hierarchy level named %q (have %s)",
				clause, level, levelNames(base))
		}
		cfg := out[idx].Config
		switch strings.ToLower(param) {
		case "size":
			sz, err := parseSize(val, cfg.SizeBytes)
			if err != nil {
				return nil, fmt.Errorf("mrc: clause %q: %w", clause, err)
			}
			cfg.SizeBytes = sz
		case "ways":
			switch strings.ToLower(val) {
			case "full", "fa":
				cfg.Ways = 0
			default:
				w, err := strconv.Atoi(val)
				if err != nil || w < 0 {
					return nil, fmt.Errorf("mrc: clause %q: ways must be a non-negative integer or \"full\"", clause)
				}
				cfg.Ways = w
			}
		case "line":
			lb, err := strconv.ParseUint(val, 10, 64)
			if err != nil || lb == 0 {
				return nil, fmt.Errorf("mrc: clause %q: line must be a positive byte count", clause)
			}
			cfg.LineBytes = lb
		default:
			return nil, fmt.Errorf("mrc: clause %q: unknown parameter %q (want size, ways or line)", clause, param)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("mrc: clause %q: %w", clause, err)
		}
		out[idx].Config = cfg
	}
	return out, nil
}

func levelNames(specs []cache.LevelSpec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// parseSize parses a capacity value: "Nx" multiplies the base (N may be
// fractional), otherwise an absolute size with an optional KiB/MiB/GiB
// (or KB/MB/GB, treated as binary) suffix. A size that does not fit in
// 64 bits is an error, never a wrapped or saturated value.
func parseSize(val string, base uint64) (uint64, error) {
	v := strings.ToLower(strings.TrimSpace(val))
	if strings.HasSuffix(v, "x") {
		f, err := strconv.ParseFloat(v[:len(v)-1], 64)
		sz := f * float64(base)
		// Written so that NaN fails too: every comparison with it is false.
		if err != nil || !(sz > 0 && sz < 0x1p64) {
			return 0, fmt.Errorf("bad size multiplier %q", val)
		}
		return uint64(sz), nil
	}
	mult := uint64(1)
	for _, s := range []struct {
		suffix string
		mult   uint64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(v, s.suffix) {
			v = strings.TrimSpace(v[:len(v)-len(s.suffix)])
			mult = s.mult
			break
		}
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad size %q", val)
	}
	hi, sz := bits.Mul64(n, mult)
	if hi != 0 {
		return 0, fmt.Errorf("size %q does not fit in 64 bits", val)
	}
	return sz, nil
}

// Report is the answer to one what-if question: the base and modified
// hierarchy predictions side by side, plus the underlying miss-ratio
// curve the capacities were read from.
type Report struct {
	// BlockBytes is the measurement granularity of the source histogram.
	BlockBytes uint64 `json:"block_bytes"`
	// Spec is the what-if specification the report answers.
	Spec string `json:"spec"`
	// Base and Modified are the hierarchy predictions before and after
	// applying the spec.
	Base     *HierarchyPrediction `json:"base"`
	Modified *HierarchyPrediction `json:"modified"`
	// Curve is the fully associative miss-ratio curve of the profile,
	// for context around the predicted points.
	Curve *Curve `json:"curve"`
}

// WhatIf answers a what-if question from a reuse-distance histogram:
// parse the spec against the base hierarchy, predict both hierarchies,
// and attach the profile's miss-ratio curve. A nil/empty sweep uses
// defaults.
func WhatIf(rd *histogram.Histogram, blockBytes uint64, base []cache.LevelSpec, spec string, sweep Sweep) (*Report, error) {
	modified, err := ParseSpec(spec, base)
	if err != nil {
		return nil, err
	}
	bp, err := PredictLevels(rd, base, blockBytes)
	if err != nil {
		return nil, err
	}
	mp, err := PredictLevels(rd, modified, blockBytes)
	if err != nil {
		return nil, err
	}
	return &Report{
		BlockBytes: blockBytes,
		Spec:       spec,
		Base:       bp,
		Modified:   mp,
		Curve:      FromHistogram(rd, blockBytes, sweep),
	}, nil
}

// String renders the report as a side-by-side text comparison.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "what-if: %s\n\n", r.Spec)
	fmt.Fprintf(&sb, "%-6s %14s %10s %14s %10s %9s\n",
		"level", "base size", "base loc%", "new size", "new loc%", "Δglobal")
	for i, b := range r.Base.Levels {
		m := r.Modified.Levels[i]
		fmt.Fprintf(&sb, "%-6s %14d %9.2f%% %14d %9.2f%% %+8.2f%%\n",
			b.Name, b.SizeBytes, 100*b.Local, m.SizeBytes, 100*m.Local,
			100*(m.Global-b.Global))
	}
	return sb.String()
}
