// Package histogram implements the weighted, logarithmically bucketed
// histograms in which reuse distances and reuse times are reported, along
// with the accuracy metric used to compare a sampled histogram against
// ground truth.
//
// Reuse distances span many orders of magnitude, so following the paper
// (and every reuse-distance tool in practice) values are binned in
// power-of-two buckets: bucket b holds values v with 2^(b-1) <= v < 2^b,
// bucket 0 holds the value 0. A separate bucket holds "cold" accesses —
// first touches with no previous access, whose reuse distance is infinite.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Infinite is the sentinel value recorded for cold (never before
// accessed) locations.
const Infinite = math.MaxUint64

// maxBucket is the bucket of the largest finite value: no observation
// lands above it, so a snapshot naming a higher bucket is corrupt.
const maxBucket = 64

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v uint64) int {
	return bits.Len64(v)
}

// BucketLow returns the smallest value that falls in bucket b.
func BucketLow(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// BucketHigh returns the largest value that falls in bucket b.
func BucketHigh(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1<<b - 1
}

// BucketLabel renders a human-readable range for bucket b ("0", "1",
// "[2,4)", "[64K,128K)", ...).
func BucketLabel(b int) string {
	switch b {
	case 0:
		return "0"
	case 1:
		return "1"
	default:
		return fmt.Sprintf("[%s,%s)", siValue(uint64(1)<<(b-1)), siValue(uint64(1)<<b))
	}
}

func siValue(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%dG", v>>30)
	case v >= 1<<20:
		return fmt.Sprintf("%dM", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dK", v>>10)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// Histogram is a weighted log2 histogram. The zero value is ready to use.
// Weights are float64 so that sampled histograms can scale each
// observation by its sampling period.
type Histogram struct {
	buckets []float64
	cold    float64 // weight of Infinite observations
	count   uint64  // number of Add calls (unweighted)
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// Assemble builds a histogram directly from its components: per-bucket
// weights (bucket b of the slice is bucket b of the histogram), the
// cold weight, and the raw observation count. It exists for mergers
// that accumulate bucket weights out of band (e.g. in extended
// precision) and need to materialize the result; the slice is owned by
// the histogram afterwards.
func Assemble(buckets []float64, cold float64, count uint64) *Histogram {
	return &Histogram{buckets: buckets, cold: cold, count: count}
}

// Add records value v with weight w. Infinite records a cold access.
func (h *Histogram) Add(v uint64, w float64) {
	h.count++
	if v == Infinite {
		h.cold += w
		return
	}
	b := bucketOf(v)
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b] += w
}

// AddHistogram merges other into h bucket-wise.
func (h *Histogram) AddHistogram(other *Histogram) {
	for len(h.buckets) < len(other.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, w := range other.buckets {
		h.buckets[i] += w
	}
	h.cold += other.cold
	h.count += other.count
}

// Weight returns the weight in bucket b (0 if b is out of range).
func (h *Histogram) Weight(b int) float64 {
	if b < 0 || b >= len(h.buckets) {
		return 0
	}
	return h.buckets[b]
}

// Cold returns the weight of cold (infinite-distance) observations.
func (h *Histogram) Cold() float64 { return h.cold }

// Count returns the number of raw observations added.
func (h *Histogram) Count() uint64 { return h.count }

// NumBuckets returns the number of finite buckets tracked.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Total returns the total weight including cold observations.
func (h *Histogram) Total() float64 {
	t := h.cold
	for _, w := range h.buckets {
		t += w
	}
	return t
}

// TotalFinite returns the total weight excluding cold observations.
func (h *Histogram) TotalFinite() float64 { return h.Total() - h.cold }

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		buckets: append([]float64(nil), h.buckets...),
		cold:    h.cold,
		count:   h.count,
	}
}

// Mean returns the weighted mean of finite observations, using each
// bucket's geometric midpoint as its representative value.
func (h *Histogram) Mean() float64 {
	tf := h.TotalFinite()
	if tf == 0 {
		return 0
	}
	sum := 0.0
	for b, w := range h.buckets {
		sum += w * bucketMid(b)
	}
	return sum / tf
}

// bucketMid is the representative (geometric mid) value of bucket b.
func bucketMid(b int) float64 {
	if b == 0 {
		return 0
	}
	lo, hi := float64(BucketLow(b)), float64(BucketHigh(b))+1
	return math.Sqrt(lo * hi)
}

// Percentile returns the smallest bucket-representative value v such that
// at least q (in [0,1]) of the total weight lies in buckets <= v. Cold
// weight counts as above every finite value; if the percentile falls in
// the cold mass, +Inf is returned.
func (h *Histogram) Percentile(q float64) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	target := q * t
	acc := 0.0
	for b, w := range h.buckets {
		acc += w
		if acc >= target {
			return bucketMid(b)
		}
	}
	return math.Inf(1)
}

// FractionAbove returns the fraction of total weight at values >= v,
// counting cold observations (infinite distance) as above every v.
func (h *Histogram) FractionAbove(v uint64) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	b := bucketOf(v)
	sum := h.cold
	for i := b; i < len(h.buckets); i++ {
		// The bucket containing v straddles the threshold; attribute a
		// proportional share assuming a uniform intra-bucket spread.
		w := h.buckets[i]
		if i == b && b > 0 {
			lo, hi := BucketLow(i), BucketHigh(i)
			if v > lo {
				span := float64(hi-lo) + 1
				w *= float64(hi-v+1) / span
			}
		}
		sum += w
	}
	return sum / t
}

// Accuracy computes the paper-style accuracy of h against a reference
// histogram: both are normalized to probability distributions over
// (finite buckets + cold), and accuracy = 1 - ½ Σ |p_b - q_b|, i.e. one
// minus the total-variation distance. Identical shapes score 1.0,
// disjoint shapes 0.0.
func Accuracy(h, ref *Histogram) float64 {
	th, tr := h.Total(), ref.Total()
	if th == 0 || tr == 0 {
		if th == tr {
			return 1
		}
		return 0
	}
	n := len(h.buckets)
	if len(ref.buckets) > n {
		n = len(ref.buckets)
	}
	d := math.Abs(h.cold/th - ref.cold/tr)
	for b := 0; b < n; b++ {
		d += math.Abs(h.Weight(b)/th - ref.Weight(b)/tr)
	}
	return 1 - d/2
}

// String renders the histogram as an aligned text table with bars, one
// row per non-empty bucket plus the cold row.
func (h *Histogram) String() string {
	t := h.Total()
	var sb strings.Builder
	if t == 0 {
		sb.WriteString("(empty histogram)\n")
		return sb.String()
	}
	maxFrac := 0.0
	for b := range h.buckets {
		if f := h.buckets[b] / t; f > maxFrac {
			maxFrac = f
		}
	}
	if f := h.cold / t; f > maxFrac {
		maxFrac = f
	}
	row := func(label string, w float64) {
		f := w / t
		barLen := 0
		if maxFrac > 0 {
			barLen = int(f / maxFrac * 40)
		}
		fmt.Fprintf(&sb, "%14s %8.4f%% %s\n", label, f*100, strings.Repeat("#", barLen))
	}
	for b, w := range h.buckets {
		if w > 0 {
			row(BucketLabel(b), w)
		}
	}
	if h.cold > 0 {
		row("cold(inf)", h.cold)
	}
	return sb.String()
}
