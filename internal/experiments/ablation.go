package experiments

import (
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
)

// A1Row is one replacement policy's mean accuracy.
type A1Row struct {
	Policy       core.ReplacementPolicy
	MeanAccuracy float64
}

// A1Result is ablation A1: the watchpoint replacement policy.
// Probabilistic replacement (the default) balances arming throughput
// against long-reuse survival; reservoir arms only logarithmically many
// samples; always-replace censors everything pending longer than a few
// periods; never-replace completes everything it arms but stalls arming
// behind long-pending watchpoints.
type A1Result struct {
	Rows []A1Row
}

// RunA1 compares replacement policies over the representative workloads.
func (o Options) RunA1() (*A1Result, error) {
	o = o.withGroundTruth()
	res := &A1Result{}
	tb := report.NewTable("A1: watchpoint replacement policy", "policy", "mean accuracy")
	for _, pol := range []core.ReplacementPolicy{core.ReplaceProbabilistic, core.ReplaceHybrid, core.ReplaceReservoir, core.ReplaceAlways, core.ReplaceNever} {
		pol := pol
		acc, err := o.meanAccuracyByConfig(func(c *core.Config) { c.Replacement = pol })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, A1Row{Policy: pol, MeanAccuracy: acc})
		tb.AddRow(pol.String(), acc)
	}
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// A2Result is ablation A2: reporting raw reuse times as if they were
// distances versus applying the footprint conversion. On workloads whose
// footprint grows sublinearly in window length (any workload with reuse,
// i.e. all of them except pure streams), raw times overestimate
// distances and the conversion must win.
type A2Result struct {
	ConvertedMean float64
	RawMean       float64
	ConversionWin float64 // converted − raw accuracy
}

// RunA2 compares converted and raw reporting.
func (o Options) RunA2() (*A2Result, error) {
	o = o.withGroundTruth()
	conv, err := o.meanAccuracyByConfig(func(c *core.Config) { c.ConvertDistances = true })
	if err != nil {
		return nil, err
	}
	raw, err := o.meanAccuracyByConfig(func(c *core.Config) { c.ConvertDistances = false })
	if err != nil {
		return nil, err
	}
	res := &A2Result{ConvertedMean: conv, RawMean: raw, ConversionWin: conv - raw}
	tb := report.NewTable("A2: footprint conversion vs raw reuse times", "mode", "mean accuracy")
	tb.AddRow("footprint-converted", conv)
	tb.AddRow("raw reuse time", raw)
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// A4Row is one granularity-approximation measurement.
type A4Row struct {
	Pattern  string
	Accuracy float64
}

// A4Result is ablation A4: the same-word approximation at cache-line
// granularity. Hardware watchpoints cover at most 8 bytes, so RDX
// watches the sampled word and reports its reuse as the line's. This is
// exact when each line is touched at one word (line-stride sweeps) and
// blind to intra-line reuse when lines are swept word by word.
type A4Result struct {
	Rows []A4Row
}

// RunA4 quantifies the approximation on both extremes and a mixed case.
func (o Options) RunA4() (*A4Result, error) {
	n := o.Accesses
	patterns := []struct {
		name string
		mk   func() trace.Reader
	}{
		{"line-stride (1 word/line)", func() trace.Reader {
			return trace.Limit(trace.Repeat(1<<30, func() trace.Reader {
				return trace.Sequential(0, 4096, 64)
			}), n)
		}},
		{"word-stride (8 words/line)", func() trace.Reader {
			return trace.Cyclic(0, 32<<10, n)
		}},
		{"random words", func() trace.Reader {
			return trace.RandomUniform(o.Seed, 0, 64<<10, n)
		}},
	}
	res := &A4Result{}
	tb := report.NewTable("A4: same-word approximation at line granularity",
		"pattern", "accuracy vs line ground truth")
	for _, p := range patterns {
		cfg := o.rdxConfig()
		cfg.Granularity = mem.LineGranularity
		prof, err := core.NewProfiler(cfg)
		if err != nil {
			return nil, err
		}
		rdx, err := prof.Run(p.mk(), cpumodel.Default())
		if err != nil {
			return nil, err
		}
		gt, err := exact.Measure(p.mk(), mem.LineGranularity)
		if err != nil {
			return nil, err
		}
		row := A4Row{Pattern: p.name, Accuracy: histogram.Accuracy(rdx.ReuseDistance, gt.ReuseDistance())}
		res.Rows = append(res.Rows, row)
		tb.AddRow(row.Pattern, row.Accuracy)
	}
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// A5Result is ablation A5: censored-observation redistribution
// (Kaplan-Meier-style) on versus off. Replacement evicts watchpoints
// before long reuses complete; without redistribution that mass simply
// vanishes and the histogram skews short.
type A5Result struct {
	OnMean  float64
	OffMean float64
	Win     float64 // on − off accuracy
}

// RunA5 compares bias correction on/off over the representative
// workloads.
func (o Options) RunA5() (*A5Result, error) {
	o = o.withGroundTruth()
	on, err := o.meanAccuracyByConfig(func(c *core.Config) { c.BiasCorrection = true })
	if err != nil {
		return nil, err
	}
	off, err := o.meanAccuracyByConfig(func(c *core.Config) { c.BiasCorrection = false })
	if err != nil {
		return nil, err
	}
	res := &A5Result{OnMean: on, OffMean: off, Win: on - off}
	tb := report.NewTable("A5: censored-observation redistribution", "mode", "mean accuracy")
	tb.AddRow("redistribution on", on)
	tb.AddRow("redistribution off", off)
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}
