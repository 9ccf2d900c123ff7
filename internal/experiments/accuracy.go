package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// T2Row is one workload's RDX accuracy (experiment T2).
type T2Row struct {
	Workload string
	Accuracy float64
	Samples  uint64
	Pairs    uint64
	Cold     uint64
}

// T2Result is experiment T2: RDX accuracy against ground truth across
// the full suite at the default configuration. The paper's claim is a
// typical accuracy above 90%.
type T2Result struct {
	Rows         []T2Row
	MeanAccuracy float64
	MinAccuracy  float64
	MinWorkload  string
}

// t2Committed gates the paper's accuracy claim in CI. At the operating
// point they were recorded at — Accurate(), which is also rdexper's
// default: 4M accesses, 8K period, seed 1 — every run repeats these
// accuracies exactly, and RunT2 fails when a workload falls more than
// t2FloorMargin below its value. The margin admits deliberate profiler
// changes that move accuracy a little, and nothing else.
var t2Committed = map[string]float64{
	"bwaves":    0.9913,
	"cactuBSSN": 0.9043,
	"deepsjeng": 0.6720,
	"exchange2": 0.9528,
	"fotonik3d": 0.9345,
	"gcc":       0.8646,
	"lbm":       0.9298,
	"leela":     0.8717,
	"mcf":       0.8518,
	"nab":       0.8748,
	"omnetpp":   0.9433,
	"perlbench": 0.8991,
	"x264":      0.9081,
	"xalancbmk": 0.7720,
	"xz":        0.8098,
}

const t2FloorMargin = 0.03

// RunT2 profiles every workload under RDX and ground truth and compares
// the reuse-distance histograms. At the t2Committed operating point it
// fails if any workload's accuracy is below its floor.
func (o Options) RunT2() (*T2Result, error) {
	res := &T2Result{MinAccuracy: 1}
	var accs []float64
	for _, w := range workloads.Suite() {
		rdx, err := o.runRDX(w.Name, o.rdxConfig())
		if err != nil {
			return nil, err
		}
		gt, _, err := o.runExact(w.Name)
		if err != nil {
			return nil, err
		}
		acc := accuracyOf(rdx, gt)
		res.Rows = append(res.Rows, T2Row{
			Workload: w.Name,
			Accuracy: acc,
			Samples:  rdx.Samples,
			Pairs:    rdx.ReusePairs,
			Cold:     rdx.ColdSamples,
		})
		accs = append(accs, acc)
		if acc < res.MinAccuracy {
			res.MinAccuracy = acc
			res.MinWorkload = w.Name
		}
	}
	res.MeanAccuracy = stats.Mean(accs)

	tb := report.NewTable("T2: RDX reuse-distance accuracy vs ground truth",
		"workload", "accuracy", "samples", "reuse pairs", "cold")
	for _, r := range res.Rows {
		tb.AddRow(r.Workload, r.Accuracy, r.Samples, r.Pairs, r.Cold)
	}
	tb.AddRow("mean", res.MeanAccuracy, "", "", "")
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	if o.atCommittedPoint() {
		for _, r := range res.Rows {
			committed, ok := t2Committed[r.Workload]
			if !ok {
				return res, fmt.Errorf("experiments: T2 has no committed accuracy floor for %s", r.Workload)
			}
			if r.Accuracy < committed-t2FloorMargin {
				return res, fmt.Errorf("experiments: T2 accuracy of %s is %.4f, below its floor %.4f (committed %.4f - margin %.2f)",
					r.Workload, r.Accuracy, committed-t2FloorMargin, committed, t2FloorMargin)
			}
		}
		fmt.Fprintf(o.out(), "every workload within %.2f of its committed T2 accuracy\n", t2FloorMargin)
	}
	return res, nil
}

// F3Result is experiment F3: side-by-side RDX vs ground-truth histograms
// for the representative workloads (the paper's overlay figures).
type F3Result struct {
	Workloads  []string
	Accuracies []float64
}

// RunF3 renders paired histograms for the representative workloads.
func (o Options) RunF3() (*F3Result, error) {
	res := &F3Result{}
	for _, name := range representative {
		rdx, err := o.runRDX(name, o.rdxConfig())
		if err != nil {
			return nil, err
		}
		gt, _, err := o.runExact(name)
		if err != nil {
			return nil, err
		}
		acc := accuracyOf(rdx, gt)
		res.Workloads = append(res.Workloads, name)
		res.Accuracies = append(res.Accuracies, acc)
		fmt.Fprintf(o.out(), "== F3: %s (accuracy %.4f) ==\n--- ground truth ---\n%s--- RDX ---\n%s\n",
			name, acc, gt.ReuseDistance(), rdx.ReuseDistance)
	}
	return res, nil
}

// F6Point is one (period, accuracy, overhead) measurement.
type F6Point struct {
	Workload  string
	Period    uint64
	Accuracy  float64
	Overhead  float64
	Samples   uint64
	ReusePair uint64
}

// F6Result is experiment F6: accuracy and overhead as the sampling
// period sweeps from aggressive to featherlight. Accuracy should degrade
// gracefully as the period grows while overhead falls.
type F6Result struct {
	Points []F6Point
}

// F6Periods returns the sweep's sampling periods, scaled around the
// option's base period.
func (o Options) F6Periods() []uint64 {
	base := o.Period
	return []uint64{base / 8, base / 4, base / 2, base, base * 2, base * 4, base * 8}
}

// RunF6 sweeps the sampling period on the representative workloads.
func (o Options) RunF6() (*F6Result, error) {
	res := &F6Result{}
	tb := report.NewTable("F6: sampling-period sensitivity",
		"workload", "period", "accuracy", "time ovh %", "samples")
	for _, name := range representative {
		gt, _, err := o.runExact(name)
		if err != nil {
			return nil, err
		}
		for _, period := range o.F6Periods() {
			if period == 0 {
				continue
			}
			cfg := o.rdxConfig()
			cfg.SamplePeriod = period
			rdx, err := o.runRDX(name, cfg)
			if err != nil {
				return nil, err
			}
			pt := F6Point{
				Workload:  name,
				Period:    period,
				Accuracy:  accuracyOf(rdx, gt),
				Overhead:  rdx.TimeOverhead(),
				Samples:   rdx.Samples,
				ReusePair: rdx.ReusePairs,
			}
			res.Points = append(res.Points, pt)
			tb.AddRow(name, period, pt.Accuracy, 100*pt.Overhead, pt.Samples)
		}
	}
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// F7Point is one (watchpoints, accuracy) measurement.
type F7Point struct {
	Workload    string
	Watchpoints int
	Accuracy    float64
	Pairs       uint64
	Dropped     uint64
}

// F7Result is experiment F7: sensitivity to the number of hardware debug
// registers. More registers keep more concurrent samples alive, raising
// the number of completed reuse pairs at the same period; x86's 4 should
// sit near the knee.
type F7Result struct {
	Points []F7Point
}

// RunF7 sweeps the debug-register count on the representative workloads.
func (o Options) RunF7() (*F7Result, error) {
	res := &F7Result{}
	tb := report.NewTable("F7: debug-register-count sensitivity",
		"workload", "watchpoints", "accuracy", "reuse pairs", "dropped")
	for _, name := range representative {
		gt, _, err := o.runExact(name)
		if err != nil {
			return nil, err
		}
		for _, nwp := range []int{1, 2, 4, 8} {
			cfg := o.rdxConfig()
			cfg.NumWatchpoints = nwp
			rdx, err := o.runRDX(name, cfg)
			if err != nil {
				return nil, err
			}
			pt := F7Point{
				Workload:    name,
				Watchpoints: nwp,
				Accuracy:    accuracyOf(rdx, gt),
				Pairs:       rdx.ReusePairs,
				Dropped:     rdx.Dropped,
			}
			res.Points = append(res.Points, pt)
			tb.AddRow(name, nwp, pt.Accuracy, pt.Pairs, pt.Dropped)
		}
	}
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// meanAccuracyByConfig is a helper for ablations: mean accuracy over the
// representative workloads for a config mutation.
func (o Options) meanAccuracyByConfig(mutate func(*core.Config)) (float64, error) {
	var accs []float64
	for _, name := range representative {
		gt, _, err := o.runExact(name)
		if err != nil {
			return 0, err
		}
		cfg := o.rdxConfig()
		mutate(&cfg)
		rdx, err := o.runRDX(name, cfg)
		if err != nil {
			return 0, err
		}
		accs = append(accs, accuracyOf(rdx, gt))
	}
	return stats.Mean(accs), nil
}
