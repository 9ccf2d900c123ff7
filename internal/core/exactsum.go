package core

import "math/big"

// exactSum accumulates float64 values exactly, so the final rounded
// float64 is independent of addition order. Thread histograms and
// attribution weights are genuinely non-integer floats (Kaplan-Meier
// censoring redistribution and the accesses/unitTotal weight scale in
// buildResult), so plain float64 summation is order-dependent in the
// last ulp — which would make the merged bits depend on the order the
// results are added in. Summing in a big.Float wide enough to
// hold any float64 sum exactly makes addition associative; the single
// rounding happens once, at extraction.
//
// exactSumPrec covers the full double span: the smallest subnormal LSB
// is 2^-1074 and sums here stay far below 2^1024, so a window of
// 1074+1024 bits plus slack holds every partial sum without rounding.
// big.Float stores only significant words, so a typical sum costs a few
// machine words, not 2176 bits.
const exactSumPrec = 2176

// exactSum's zero value is an exact 0.
type exactSum struct{ f *big.Float }

// add folds one float64 into the sum. tmp is caller-owned scratch so
// the hot path allocates nothing beyond the lazily created accumulator.
func (s *exactSum) add(v float64, tmp *big.Float) {
	if v == 0 {
		return
	}
	if s.f == nil {
		s.f = new(big.Float).SetPrec(exactSumPrec)
	}
	tmp.SetFloat64(v)
	s.f.Add(s.f, tmp)
}

// float64 rounds the exact sum to the nearest float64 — the one place
// rounding happens.
func (s *exactSum) float64() float64 {
	if s.f == nil {
		return 0
	}
	v, _ := s.f.Float64()
	return v
}
