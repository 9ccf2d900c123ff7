package mrc

import (
	"math"

	"repro/internal/cache"
	"repro/internal/histogram"
)

// subPoints is how many uniformly spaced representative distances are
// evaluated per histogram bucket when applying the set-associative model
// (log2 buckets are wide at the top; point-sampling the midpoint alone
// makes predictions jump a whole bucket at a time).
const subPoints = 4

// PredictCache predicts the miss ratio of a single set-associative LRU
// cache from a reuse-distance histogram measured at blockBytes
// granularity.
//
// Fully associative configurations (Ways == 0) use the exact
// stack-distance identity at the capacity SizeBytes/blockBytes. For
// set-associative caches, an access with global reuse distance D (in
// cache lines) competes only with the lines that map to its own set;
// with S sets those are modeled as Poisson(D/S) distributed, and the
// access misses an A-way set when at least A distinct competing lines
// intervened — the per-set distance correction. One set (S == 1)
// degenerates to the deterministic threshold D >= A, which reproduces
// the fully associative identity.
func PredictCache(rd *histogram.Histogram, cfg cache.Config, blockBytes uint64) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if blockBytes == 0 {
		blockBytes = 1
	}
	total := rd.Total()
	if total == 0 {
		return 0, nil
	}
	if cfg.Ways == 0 {
		return cache.PredictMissRatio(rd, faCapacityBlocks(cfg, blockBytes)), nil
	}
	missW := rd.Cold() // cold accesses miss every cache
	eachBucket(rd, func(d uint64, w float64) {
		missW += w * setAssocPMiss(d, cfg, blockBytes)
	})
	return missW / total, nil
}

// faCapacityBlocks is the fully associative capacity in measurement
// blocks (at least 1 so tiny caches still admit back-to-back reuses).
func faCapacityBlocks(cfg cache.Config, blockBytes uint64) uint64 {
	c := cfg.SizeBytes / blockBytes
	if c == 0 {
		c = 1
	}
	return c
}

// setAssocPMiss is the probability that an access with reuse distance d
// (in measurement blocks) misses the given set-associative cache.
func setAssocPMiss(d uint64, cfg cache.Config, blockBytes uint64) float64 {
	// Rescale the distance from measurement blocks to cache lines:
	// distinct blocks pack (or spread) into lines proportionally.
	dl := float64(d) * float64(blockBytes) / float64(cfg.LineBytes)
	ways := uint64(cfg.Ways)
	sets := cfg.Lines() / ways
	if sets <= 1 {
		if dl >= float64(ways) {
			return 1
		}
		return 0
	}
	// Per-set intervening distance ~ Poisson(dl/sets); miss when it
	// reaches the associativity. Sum the pmf iteratively; for large
	// lambda exp(-lambda) underflows to 0 and the tail is correctly 1.
	lambda := dl / float64(sets)
	p := math.Exp(-lambda)
	cdf := 0.0
	for k := uint64(0); k < ways; k++ {
		cdf += p
		p *= lambda / float64(k+1)
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// eachBucket visits subPoints uniformly spaced representative distances
// per non-empty finite bucket, splitting the bucket's weight evenly —
// the quadrature every model in this package integrates histograms with.
func eachBucket(rd *histogram.Histogram, f func(d uint64, w float64)) {
	for b := 0; b < rd.NumBuckets(); b++ {
		w := rd.Weight(b)
		if w <= 0 {
			continue
		}
		if b == 0 {
			f(0, w)
			continue
		}
		lo := histogram.BucketLow(b)
		span := histogram.BucketHigh(b) - lo + 1
		if span < subPoints {
			// Narrow buckets ([1,1], [2,3]): one point per value.
			wv := w / float64(span)
			for v := uint64(0); v < span; v++ {
				f(lo+v, wv)
			}
			continue
		}
		wv := w / subPoints
		for i := uint64(0); i < subPoints; i++ {
			// Midpoint of the i-th of subPoints equal sub-ranges.
			f(lo+(2*i+1)*span/(2*subPoints), wv)
		}
	}
}
