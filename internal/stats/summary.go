package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (they would otherwise poison the mean,
// and overhead ratios are always positive in practice). Returns 0 for an
// empty or all-non-positive slice.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Percentile returns the q-th percentile (q in [0,100]) of xs using
// linear interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Reservoir maintains a uniform random sample of up to k items observed
// from a stream of unknown length (Vitter's algorithm R). It underpins
// the watchpoint replacement policy that keeps RDX's armed addresses a
// uniform sample of all PMU-sampled addresses.
type Reservoir[T any] struct {
	rng   *RNG
	items []T
	seen  uint64
	k     int
}

// NewReservoir returns a reservoir that retains at most k items.
func NewReservoir[T any](rng *RNG, k int) *Reservoir[T] {
	if k <= 0 {
		panic("stats: NewReservoir with k <= 0")
	}
	return &Reservoir[T]{rng: rng, items: make([]T, 0, k), k: k}
}

// Offer presents one stream item. It returns the index the item was
// stored at and true if the item was admitted, or -1 and false if it was
// rejected. When the reservoir is full, admission evicts the item at the
// returned index.
func (r *Reservoir[T]) Offer(item T) (int, bool) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return len(r.items) - 1, true
	}
	j := r.rng.Uint64n(r.seen)
	if j < uint64(r.k) {
		r.items[j] = item
		return int(j), true
	}
	return -1, false
}

// Items returns the current sample. The slice aliases internal storage.
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen returns how many items have been offered.
func (r *Reservoir[T]) Seen() uint64 { return r.seen }
