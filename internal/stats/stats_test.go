package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Error("different seeds produced identical first draw")
	}
}

func TestRNGUint64nRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
	}
}

func TestRNGUint64nUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(0)
	assertPanics(t, "Uint64n(0)", func() { r.Uint64n(0) })
	assertPanics(t, "Intn(0)", func() { r.Intn(0) })
	assertPanics(t, "Intn(-1)", func() { r.Intn(-1) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := make([]int, 100)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(r, 1.0, 1000)
	const n = 100000
	counts := make([]int, 1000)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should dominate rank 99 by roughly 100x under s=1.
	if counts[0] < counts[99]*20 {
		t.Errorf("Zipf not skewed: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		z := NewZipf(r, 0.8, 37)
		for i := 0; i < 100; i++ {
			if v := z.Next(); v < 0 || v >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean of non-positives = %v, want 0", got)
	}
	// Non-positive entries are skipped.
	if got := GeoMean([]float64{0, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(0,4) = %v, want 4", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {200, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.q); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}
