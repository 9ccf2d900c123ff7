package exact

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestMeasureAutoBitIdenticalEitherPath proves the auto-picker is
// invisible: whichever path it takes (forced via Cores), the result is
// bit-identical to the sequential oracle.
func TestMeasureAutoBitIdenticalEitherPath(t *testing.T) {
	const n = 60000
	mk := func() trace.Reader { return trace.ZipfAccess(3, 0, 500, 1.0, n) }

	seq := New(mem.WordGranularity, WithAttribution())
	if err := trace.ForEach(mk(), func(a mem.Access) bool { seq.Observe(a); return true }); err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 4} {
		got, err := MeasureAuto(mk(), mem.WordGranularity, AutoOptions{
			ParallelOptions: ParallelOptions{Workers: 4, ShardSize: 4096, Attribution: true},
			Cores:           cores,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Accesses() != seq.Accesses() || got.DistinctBlocks() != seq.DistinctBlocks() {
			t.Fatalf("cores=%d: counters diverge", cores)
		}
		if !reflect.DeepEqual(got.ReuseDistance(), seq.ReuseDistance()) ||
			!reflect.DeepEqual(got.ReuseTime(), seq.ReuseTime()) {
			t.Fatalf("cores=%d: histograms diverge from sequential", cores)
		}
		if !reflect.DeepEqual(got.Pairs(), seq.Pairs()) {
			t.Fatalf("cores=%d: attribution diverges from sequential", cores)
		}
		if got.StateBytes() == 0 {
			t.Fatalf("cores=%d: StateBytes = 0", cores)
		}
	}
}

// TestPickParallelPolicy pins the decision table: one effective core
// never shards (the 1-core parallel regression is gone by construction),
// and streams shorter than two shards never shard.
func TestPickParallelPolicy(t *testing.T) {
	const shard = 1 << 20
	cases := []struct {
		cores    int
		sizeHint uint64
		want     bool
	}{
		{cores: 1, sizeHint: 0, want: false},
		{cores: 1, sizeHint: 100 * shard, want: false},
		{cores: 4, sizeHint: 0, want: true},
		{cores: 4, sizeHint: 100 * shard, want: true},
		{cores: 4, sizeHint: shard, want: false},
		{cores: 4, sizeHint: 2 * shard, want: true},
	}
	for _, c := range cases {
		if got := pickParallel(c.cores, c.sizeHint, shard); got != c.want {
			t.Errorf("pickParallel(cores=%d, hint=%d) = %v, want %v",
				c.cores, c.sizeHint, got, c.want)
		}
	}
	if EffectiveCores() < 1 {
		t.Error("EffectiveCores < 1")
	}
}
