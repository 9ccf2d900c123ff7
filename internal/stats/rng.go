// Package stats supplies the small statistical utilities the rest of the
// system leans on: a fast deterministic random-number generator suitable
// for hot simulation loops and summary statistics (means, geometric
// means, percentiles).
package stats

import "math"

// RNG is a splitmix64 pseudo-random generator. It is deterministic for a
// given seed, allocation-free, and fast enough to sit inside the
// per-access simulation loop. The zero value is a valid generator seeded
// with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// State returns the generator's internal state. Together with Seed it
// makes the RNG checkpointable: Seed(State()) on a fresh generator
// reproduces the exact future random sequence, which the profiler's
// lossless checkpoint/restore path depends on.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniformly distributed value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with n == 0")
	}
	// Rejection sampling to avoid modulo bias; the loop almost never
	// iterates for the small n used in simulations.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm fills dst with a uniformly random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Zipf draws values in [0, n) with a Zipfian (power-law) distribution of
// exponent s > 1 is not required; s may be any value > 0, s != 1 handled
// via the standard rejection-inversion-free CDF table for small n and a
// harmonic approximation otherwise.
type Zipf struct {
	rng *RNG
	cdf []float64 // cumulative probabilities, len == n for table mode
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s (larger s
// skews harder toward small values). It precomputes an n-entry CDF table,
// so n should be at most a few million.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next draws the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
