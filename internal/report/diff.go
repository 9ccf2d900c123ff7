package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/histogram"
	"repro/internal/mrc"
	"repro/internal/window"
)

// Report diffing classifies two profiles of "the same" workload —
// before/after an optimization, two builds, two machines — without a
// human eyeballing histograms. The verdict space is deliberately
// small:
//
//   - unchanged: nothing moved beyond its noise band.
//   - improved:  at least one cache-facing metric got significantly
//     better and none got significantly worse.
//   - regressed: the mirror image.
//   - shifted:   the locality changed character — metrics moved in
//     both directions, or the histogram shape / working set moved
//     while the cache-facing metrics held.
//
// Significance follows a noise-band rule: a delta is judged against
// three times the measurement's own spread, floored per metric. Here
// the spread is the sampling error scale 1/√samples — the profile is
// a sampled estimate, and two runs of the same workload differ by
// about that much for free — and the floors keep small deltas from
// being called significant.

// Diff classes.
const (
	DiffUnchanged = "unchanged"
	DiffImproved  = "improved"
	DiffRegressed = "regressed"
	DiffShifted   = "shifted"
)

// Significance levels, per metric: below the noise band, within three
// bands, beyond.
const (
	SigNone = "none"
	SigLow  = "low"
	SigHigh = "high"
)

// Metric directions: whether a significant move of this metric argues
// improvement, regression, or only that the profile changed character.
const (
	dirBetter  = "better"
	dirWorse   = "worse"
	dirNeutral = "neutral"
)

// Per-metric noise-band floors (see the package comment above).
const (
	floorMissRatio = 0.01 // absolute miss-ratio points
	floorWS        = 1.0  // |log2| ratio: working sets quantize to powers of two
	floorCold      = 0.02 // absolute fraction
	floorShape     = 0.10 // total-variation distance
)

// Metric is one compared quantity of a report pair.
type Metric struct {
	Name string `json:"name"`
	// A and B are the metric's value in each report, in the metric's
	// own unit.
	A float64 `json:"a"`
	B float64 `json:"b"`
	// Delta is the judged difference: absolute (B−A) for ratio-like
	// metrics, relative for scale metrics, |log2 ratio| for the
	// working set — Unit says which.
	Delta float64 `json:"delta"`
	Unit  string  `json:"unit"`
	// Band is the noise band Delta was judged against.
	Band float64 `json:"band"`
	// Significance is none, low or high.
	Significance string `json:"significance"`
	// Direction is better, worse or neutral; neutral metrics can only
	// argue "shifted", never improvement or regression.
	Direction string `json:"direction"`
}

// Diff is the classified comparison of two reports.
type Diff struct {
	Schema  string   `json:"schema"`
	Class   string   `json:"class"`
	Metrics []Metric `json:"metrics"`
	Summary string   `json:"summary"`
}

// DiffReports compares report b against baseline a. Both must carry a
// profile (the embedded wire result); analyses like MRC or what-if are
// recomputed from the histograms, not required in the files.
func DiffReports(a, b *Report) (*Diff, error) {
	if a == nil || a.Result == nil || a.ReuseDistance == nil {
		return nil, fmt.Errorf("report: baseline report carries no profile")
	}
	if b == nil || b.Result == nil || b.ReuseDistance == nil {
		return nil, fmt.Errorf("report: compared report carries no profile")
	}
	if ga, gb := a.Config.Granularity, b.Config.Granularity; ga != gb {
		return nil, fmt.Errorf("report: granularity mismatch: baseline measured at %v, compared at %v", ga, gb)
	}

	// Sampling-error scale of the less-sampled profile; every band is
	// max(3×spread-derived term, per-metric floor).
	n := min(a.Samples, b.Samples)
	spread := 1.0
	if n > 0 {
		spread = 1 / math.Sqrt(float64(n))
	}

	blockBytes := a.Config.Granularity.BlockSize()
	d := &Diff{Schema: SchemaVersion}

	// Cache-facing metrics: predicted miss ratio at each level of the
	// typical hierarchy. These decide improved/regressed.
	for _, lvl := range cache.TypicalHierarchy() {
		ma, erra := mrc.PredictCache(a.ReuseDistance, lvl.Config, blockBytes)
		mb, errb := mrc.PredictCache(b.ReuseDistance, lvl.Config, blockBytes)
		if erra != nil || errb != nil {
			continue
		}
		d.add(Metric{
			Name: "miss-ratio@" + lvl.Name, A: ma, B: mb,
			Delta: mb - ma, Unit: "absolute",
			Band: band(3*spread, floorMissRatio), Direction: dirBetter,
		})
	}

	// Scale metric: the working set, on a log2 scale (it quantizes to
	// histogram buckets, so sub-octave deltas are quantization noise).
	// Lower is better: it measures how much cache the workload needs.
	// The 90%-mass definition (see window.WorkingSetBlocks) keeps it
	// robust to tail slivers, unlike a mean reuse distance, which a
	// 0.5% tail perturbation can swing by orders of magnitude.
	wsa := window.WorkingSetBytes(a.ReuseDistance, blockBytes)
	wsb := window.WorkingSetBytes(b.ReuseDistance, blockBytes)
	d.add(Metric{
		Name: "working-set-bytes", A: float64(wsa), B: float64(wsb),
		Delta: log2Delta(wsa, wsb), Unit: "log2-ratio",
		Band: floorWS, Direction: dirBetter,
	})

	// Character metrics: cold fraction and histogram shape distance.
	// Neutral — they can only argue that the profile shifted.
	d.add(Metric{
		Name: "cold-fraction", A: coldFraction(a.ReuseDistance), B: coldFraction(b.ReuseDistance),
		Delta: coldFraction(b.ReuseDistance) - coldFraction(a.ReuseDistance), Unit: "absolute",
		Band: band(3*spread, floorCold), Direction: dirNeutral,
	})
	shape := 1 - histogram.Accuracy(b.ReuseDistance, a.ReuseDistance)
	d.add(Metric{
		Name: "histogram-distance", A: 0, B: shape,
		Delta: shape, Unit: "absolute",
		Band: band(3*spread, floorShape), Direction: dirNeutral,
	})

	d.classify()
	return d, nil
}

// add grades a metric's significance and records it.
func (d *Diff) add(m Metric) {
	switch abs := math.Abs(m.Delta); {
	case abs < m.Band:
		m.Significance = SigNone
	case abs < 3*m.Band:
		m.Significance = SigLow
	default:
		m.Significance = SigHigh
	}
	d.Metrics = append(d.Metrics, m)
}

// classify derives the verdict from the graded metrics.
func (d *Diff) classify() {
	var better, worse, moved []string
	for _, m := range d.Metrics {
		if m.Significance == SigNone {
			continue
		}
		switch {
		case m.Direction == dirNeutral:
			moved = append(moved, m.Name)
		case m.Delta < 0:
			better = append(better, m.Name)
		default:
			worse = append(worse, m.Name)
		}
	}
	switch {
	case len(better) > 0 && len(worse) > 0:
		d.Class = DiffShifted
		d.Summary = fmt.Sprintf("locality shifted: %s improved while %s regressed",
			strings.Join(better, ", "), strings.Join(worse, ", "))
	case len(better) > 0:
		d.Class = DiffImproved
		d.Summary = "improved: " + strings.Join(better, ", ")
	case len(worse) > 0:
		d.Class = DiffRegressed
		d.Summary = "regressed: " + strings.Join(worse, ", ")
	case len(moved) > 0:
		d.Class = DiffShifted
		d.Summary = "locality shifted without clear cache impact: " + strings.Join(moved, ", ")
	default:
		d.Class = DiffUnchanged
		d.Summary = "no metric moved beyond its noise band"
	}
}

func log2Delta(a, b uint64) float64 {
	if a == 0 || b == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Log2(float64(b) / float64(a))
}

func coldFraction(h *histogram.Histogram) float64 {
	t := h.Total()
	if t <= 0 {
		return 0
	}
	return h.Cold() / t
}

func band(derived, floor float64) float64 {
	return math.Max(derived, floor)
}
