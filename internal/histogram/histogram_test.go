package histogram

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBucketBoundaries(t *testing.T) {
	tests := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, tt := range tests {
		if got := bucketOf(tt.v); got != tt.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tt.v, got, tt.bucket)
		}
	}
}

func TestBucketLowHighRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := bucketOf(v)
		return BucketLow(b) <= v && v <= BucketHigh(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketLabel(t *testing.T) {
	tests := []struct {
		b    int
		want string
	}{
		{0, "0"}, {1, "1"}, {2, "[2,4)"}, {11, "[1K,2K)"}, {21, "[1M,2M)"},
	}
	for _, tt := range tests {
		if got := BucketLabel(tt.b); got != tt.want {
			t.Errorf("BucketLabel(%d) = %q, want %q", tt.b, got, tt.want)
		}
	}
}

func TestAddAndTotals(t *testing.T) {
	h := New()
	h.Add(0, 1)
	h.Add(5, 2)
	h.Add(Infinite, 3)
	if got := h.Total(); got != 6 {
		t.Errorf("Total = %v, want 6", got)
	}
	if got := h.TotalFinite(); got != 3 {
		t.Errorf("TotalFinite = %v, want 3", got)
	}
	if got := h.Cold(); got != 3 {
		t.Errorf("Cold = %v, want 3", got)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("Count = %v, want 3", got)
	}
	if got := h.Weight(3); got != 2 {
		t.Errorf("Weight(bucket of 5) = %v, want 2", got)
	}
	if got := h.Weight(99); got != 0 {
		t.Errorf("Weight(out of range) = %v", got)
	}
}

func TestAddHistogramConservesWeight(t *testing.T) {
	f := func(vals []uint16, weights []uint8) bool {
		a, b := New(), New()
		for i, v := range vals {
			w := 1.0
			if i < len(weights) {
				w = float64(weights[i]%10) + 0.5
			}
			if i%2 == 0 {
				a.Add(uint64(v), w)
			} else {
				b.Add(uint64(v), w)
			}
		}
		want := a.Total() + b.Total()
		a.AddHistogram(b)
		return math.Abs(a.Total()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := New()
	h.Add(4, 1)
	c := h.Clone()
	c.Add(4, 5)
	if h.Total() != 1 {
		t.Errorf("Clone aliased storage: original total = %v", h.Total())
	}
}

func TestMean(t *testing.T) {
	h := New()
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %v", h.Mean())
	}
	h.Add(1, 1) // bucket 1, mid sqrt(1*2)
	m := h.Mean()
	if math.Abs(m-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Mean = %v, want sqrt(2)", m)
	}
}

func TestPercentileAndCold(t *testing.T) {
	h := New()
	h.Add(1, 50)
	h.Add(Infinite, 50)
	if v := h.Percentile(0.25); math.IsInf(v, 1) {
		t.Errorf("25th percentile should be finite, got +Inf")
	}
	if v := h.Percentile(0.9); !math.IsInf(v, 1) {
		t.Errorf("90th percentile should be +Inf (cold mass), got %v", v)
	}
}

func TestFractionAbove(t *testing.T) {
	h := New()
	h.Add(1, 25)        // below 100
	h.Add(1000, 50)     // above 100
	h.Add(Infinite, 25) // always above
	got := h.FractionAbove(100)
	if math.Abs(got-0.75) > 1e-9 {
		t.Errorf("FractionAbove(100) = %v, want 0.75", got)
	}
	if got := h.FractionAbove(1 << 30); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("FractionAbove(huge) = %v, want 0.25 (cold only)", got)
	}
}

func TestFractionAboveEmpty(t *testing.T) {
	if got := New().FractionAbove(10); got != 0 {
		t.Errorf("empty FractionAbove = %v", got)
	}
}

func TestAccuracyIdentical(t *testing.T) {
	h := New()
	h.Add(3, 1)
	h.Add(100, 2)
	h.Add(Infinite, 1)
	if got := Accuracy(h, h.Clone()); math.Abs(got-1) > 1e-12 {
		t.Errorf("self accuracy = %v, want 1", got)
	}
}

func TestAccuracyDisjoint(t *testing.T) {
	a, b := New(), New()
	a.Add(1, 1)
	b.Add(1<<20, 1)
	if got := Accuracy(a, b); math.Abs(got) > 1e-12 {
		t.Errorf("disjoint accuracy = %v, want 0", got)
	}
}

func TestAccuracyScaleInvariant(t *testing.T) {
	a, b := New(), New()
	a.Add(5, 1)
	a.Add(50, 3)
	b.Add(5, 1000)
	b.Add(50, 3000)
	if got := Accuracy(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale-invariant accuracy = %v, want 1", got)
	}
}

func TestAccuracyEmptyCases(t *testing.T) {
	a, b := New(), New()
	if got := Accuracy(a, b); got != 1 {
		t.Errorf("both empty = %v, want 1", got)
	}
	b.Add(1, 1)
	if got := Accuracy(a, b); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
}

func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(av, bv []uint16) bool {
		a, b := New(), New()
		for _, v := range av {
			a.Add(uint64(v), 1)
		}
		for _, v := range bv {
			b.Add(uint64(v), 1)
		}
		acc := Accuracy(a, b)
		if acc < -1e-9 || acc > 1+1e-9 {
			return false
		}
		// Symmetry.
		return math.Abs(acc-Accuracy(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	h := New()
	if !strings.Contains(h.String(), "empty") {
		t.Errorf("empty histogram render: %q", h.String())
	}
	h.Add(2, 1)
	h.Add(Infinite, 1)
	s := h.String()
	if !strings.Contains(s, "[2,4)") || !strings.Contains(s, "cold(inf)") {
		t.Errorf("rendered histogram missing rows:\n%s", s)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	h := New()
	h.Add(0, 1)
	h.Add(5, 2.5)
	h.Add(1000, 3)
	h.Add(Infinite, 4)
	restored, err := FromSnapshot(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(h, restored); acc != 1 {
		t.Errorf("snapshot round trip accuracy = %v", acc)
	}
	if restored.Total() != h.Total() || restored.Count() != h.Count() {
		t.Errorf("totals differ: %v/%d vs %v/%d", restored.Total(), restored.Count(), h.Total(), h.Count())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := New()
	h.Add(42, 7)
	h.Add(Infinite, 1)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(h, &back); acc != 1 {
		t.Errorf("JSON round trip accuracy = %v", acc)
	}
}

func TestFromSnapshotRejectsInvalid(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{Buckets: map[int]float64{-1: 1}}); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := FromSnapshot(Snapshot{Buckets: map[int]float64{1: -2}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := FromSnapshot(Snapshot{Cold: -1}); err == nil {
		t.Error("negative cold accepted")
	}
	// The largest finite value sets the highest bucket a snapshot may
	// name; one past it is corrupt, and must not size the histogram.
	top := New()
	top.Add(Infinite-1, 1)
	if got, err := FromSnapshot(top.Snapshot()); err != nil || got.NumBuckets() != top.NumBuckets() {
		t.Errorf("top bucket %d rejected: %v", top.NumBuckets()-1, err)
	}
	if _, err := FromSnapshot(Snapshot{Buckets: map[int]float64{top.NumBuckets(): 1}}); err == nil {
		t.Error("bucket past the largest finite value accepted")
	}
}
