// Package mrc is the cache-analysis layer of the RDX reproduction: it
// converts reuse-distance profiles — local results, RDXS checkpoints or
// live rdxd session snapshots — into full miss-ratio curves and cache
// what-if answers, without touching the profiled program again.
//
// Three models stack up:
//
//   - Miss-ratio curves over cache size from the stack-distance identity
//     (an access to a fully associative LRU cache of C blocks misses iff
//     its reuse distance is >= C), sampled over a configurable log-spaced
//     size sweep. A footprint-based variant derives the curve from the
//     fitted average-footprint function instead (mr(c) is the footprint
//     derivative at the window that fills c blocks — the higher-order
//     theory of locality), which stays smooth where a coarse log-bucketed
//     histogram produces stair-steps.
//
//   - Set-associative caches (sets/ways/line size): the distinct blocks
//     of a reuse window spread over the sets, so the per-set reuse
//     distance of an access with global distance D is modeled as
//     Poisson(D/S) and the access misses an A-way set when that per-set
//     distance reaches A. This is the classical per-set distance
//     correction (cf. the k0nze ReuseDistanceAnalyzer, which measures
//     per-set distances directly).
//
//   - Multi-level hierarchies (L1 -> L2 -> L3): each outer level sees
//     only the misses of the level above, so its arrival stream has a
//     transformed reuse-distance histogram — each distance's weight
//     shrinks by the inner level's hit probability while the distance
//     itself carries through (most distinct blocks in a reuse window
//     miss the inner level at least once), in the spirit of Ling et
//     al.'s L2 reuse-distance histogram modeling. Applying the
//     single-level model to the transformed histogram per level yields
//     local and global miss ratios for the whole hierarchy.
//
// Every prediction is differentially tested against the reference
// simulators in internal/cache within the committed tolerances below.
package mrc

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/footprint"
	"repro/internal/histogram"
)

// Committed differential tolerances: model predictions are held within
// these absolute miss-ratio distances of the reference simulation by the
// tests in this package and the rdexper -mrc-check gate in
// scripts/check.sh. Log-bucketed histograms blur capacities inside a
// bucket, so the tolerances are loosest where associativity and
// filtering stack approximations.
const (
	// TolFullyAssoc bounds |predicted - simulated| for single
	// fully associative LRU caches (the stack-distance identity; error
	// comes only from histogram bucketing).
	TolFullyAssoc = 0.06
	// TolSetAssoc bounds the set-associative single-cache model.
	TolSetAssoc = 0.12
	// TolHierarchy bounds each level's local miss ratio in a multi-level
	// prediction against cache.SimulateHierarchy.
	TolHierarchy = 0.15
)

// Point is one sampled cache size on a miss-ratio curve.
type Point struct {
	// Lines is the capacity in measurement-granularity blocks.
	Lines uint64 `json:"lines"`
	// Bytes is the capacity in bytes (Lines x the curve's BlockBytes).
	Bytes uint64 `json:"bytes"`
	// MissRatio is the predicted miss ratio at this capacity, in [0,1].
	MissRatio float64 `json:"miss_ratio"`
}

// Curve is a miss-ratio curve: predicted miss ratio of a fully
// associative LRU cache as a function of capacity, sampled at
// log-spaced sizes. Points are strictly increasing in Lines and the
// ratios are monotone non-increasing and bounded in [0,1] by
// construction.
type Curve struct {
	// BlockBytes is the measurement-granularity block size the capacities
	// are expressed in (1 = byte, 8 = word, 64 = cache line).
	BlockBytes uint64 `json:"block_bytes"`
	// Points is the sampled curve, ordered by increasing capacity.
	Points []Point `json:"points"`
}

// Sweep configures the cache-size sweep of a curve. A sweep may come
// from a remote request, so its grid is bounded: at most 49 octaves of
// at most MaxPointsPerDoubling sizes each.
type Sweep struct {
	// MinLines and MaxLines bound the capacity range in blocks
	// (inclusive). Zero values derive the range from the source: 1 block
	// up to one doubling past the largest observed distance. Both are
	// clamped to MaxSweepLines (2^48 blocks, 16 PiB of 64-byte lines).
	MinLines uint64 `json:"min_lines,omitempty"`
	MaxLines uint64 `json:"max_lines,omitempty"`
	// PointsPerDoubling is how many sizes are sampled per octave
	// (default 2, clamped to MaxPointsPerDoubling).
	PointsPerDoubling int `json:"points_per_doubling,omitempty"`
}

// The bounds on a Sweep's grid.
const (
	MaxSweepLines        = 1 << 48
	MaxPointsPerDoubling = 64
)

// fill applies defaults, deriving the range from the largest finite
// bucket of the source histogram (maxBucket; pass <0 when no histogram
// bounds the sweep).
func (s Sweep) fill(maxBucket int) Sweep {
	if s.PointsPerDoubling <= 0 {
		s.PointsPerDoubling = 2
	}
	s.PointsPerDoubling = min(s.PointsPerDoubling, MaxPointsPerDoubling)
	if s.MinLines == 0 {
		s.MinLines = 1
	}
	s.MinLines = min(s.MinLines, MaxSweepLines)
	s.MaxLines = min(s.MaxLines, MaxSweepLines)
	if s.MaxLines == 0 {
		top := maxBucket + 1
		if top < 4 {
			top = 4
		}
		if top > 40 {
			top = 40
		}
		s.MaxLines = 1 << uint(top)
	}
	if s.MaxLines < s.MinLines {
		s.MaxLines = s.MinLines
	}
	return s
}

// sizes materializes the log-spaced capacity grid.
func (s Sweep) sizes() []uint64 {
	var out []uint64
	last := uint64(0)
	for oct := 0; ; oct++ {
		base := float64(s.MinLines) * math.Pow(2, float64(oct))
		if uint64(base) > s.MaxLines {
			break
		}
		for i := 0; i < s.PointsPerDoubling; i++ {
			v := uint64(math.Round(base * math.Pow(2, float64(i)/float64(s.PointsPerDoubling))))
			if v < 1 {
				v = 1
			}
			if v > s.MaxLines {
				break
			}
			if v != last {
				out = append(out, v)
				last = v
			}
		}
	}
	if last < s.MaxLines {
		out = append(out, s.MaxLines)
	}
	return out
}

// FromHistogram builds the miss-ratio curve of a reuse-distance
// histogram via the stack-distance identity, sampled over the sweep.
func FromHistogram(rd *histogram.Histogram, blockBytes uint64, sweep Sweep) *Curve {
	sweep = sweep.fill(rd.NumBuckets())
	c := &Curve{BlockBytes: blockBytes}
	for _, lines := range sweep.sizes() {
		c.appendClamped(lines, cache.PredictMissRatio(rd, lines))
	}
	return c
}

// FromFootprint builds the miss-ratio curve from a fitted
// average-footprint function: for capacity c, find the window length w
// with fp(w) = c, and take the miss ratio as fp's derivative there (the
// fraction of reuse times exceeding w). Because fp interpolates between
// observed reuse times, the curve stays smooth even when the backing
// histogram is coarse. Capacities beyond the program's footprint predict
// the cold-miss floor.
func FromFootprint(est *footprint.Estimator, blockBytes uint64, sweep Sweep) *Curve {
	sweep = sweep.fill(40)
	c := &Curve{BlockBytes: blockBytes}
	for _, lines := range sweep.sizes() {
		w, ok := est.InverseFootprint(float64(lines))
		mr := 0.0
		if ok {
			mr = est.TailFraction(w)
		}
		c.appendClamped(lines, mr)
		if !ok {
			break // footprint saturated: the curve is flat from here on
		}
	}
	return c
}

// appendClamped appends a point, clamping to [0,1] and enforcing
// monotone non-increasing ratios.
func (c *Curve) appendClamped(lines uint64, mr float64) {
	if mr < 0 || math.IsNaN(mr) {
		mr = 0
	}
	if mr > 1 {
		mr = 1
	}
	if n := len(c.Points); n > 0 && mr > c.Points[n-1].MissRatio {
		mr = c.Points[n-1].MissRatio
	}
	c.Points = append(c.Points, Point{Lines: lines, Bytes: lines * c.BlockBytes, MissRatio: mr})
}

// At evaluates the curve at an arbitrary capacity in blocks,
// interpolating linearly in log2(capacity) between sampled points and
// clamping beyond the ends.
func (c *Curve) At(lines uint64) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	if lines == 0 {
		return 1
	}
	if lines <= c.Points[0].Lines {
		return c.Points[0].MissRatio
	}
	last := c.Points[len(c.Points)-1]
	if lines >= last.Lines {
		return last.MissRatio
	}
	for i := 1; i < len(c.Points); i++ {
		if lines > c.Points[i].Lines {
			continue
		}
		a, b := c.Points[i-1], c.Points[i]
		la, lb, lx := math.Log2(float64(a.Lines)), math.Log2(float64(b.Lines)), math.Log2(float64(lines))
		t := 0.0
		if lb > la {
			t = (lx - la) / (lb - la)
		}
		return a.MissRatio + t*(b.MissRatio-a.MissRatio)
	}
	return last.MissRatio
}

// String renders the curve as an aligned text table with bars.
func (c *Curve) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%14s %14s %8s\n", "capacity", "bytes", "miss%")
	for _, p := range c.Points {
		bar := strings.Repeat("#", int(p.MissRatio*40))
		fmt.Fprintf(&sb, "%14d %14d %7.2f%% %s\n", p.Lines, p.Bytes, 100*p.MissRatio, bar)
	}
	return sb.String()
}
