package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestLiveSetBasics(t *testing.T) {
	l := newLiveSet(1000)
	for s := uint64(0); s < 1000; s++ {
		l.insert(s)
	}
	if l.live != 1000 {
		t.Fatalf("live = %d, want 1000", l.live)
	}
	if got := l.removeCountGreater(500); got != 499 {
		t.Errorf("removeCountGreater(500) = %d, want 499", got)
	}
	if got := l.removeCountGreater(0); got != 998 {
		t.Errorf("removeCountGreater(0) = %d, want 998", got)
	}
	if got := l.removeCountGreater(999); got != 0 {
		t.Errorf("removeCountGreater(999) = %d, want 0", got)
	}
	if got := l.removeCountGreater(63); got != 934 {
		t.Errorf("removeCountGreater(63) = %d, want 934 (slots 64..998 but 500)", got)
	}
	if l.live != 996 {
		t.Errorf("live after removes = %d, want 996", l.live)
	}
}

// TestLiveSetMatchesReference drives the set with a random Olken-like
// workload — slots inserted in increasing order with gaps, removed in
// arbitrary order, the survivors renumbered to their ranks now and then
// — and checks every count against a plain sorted slice.
func TestLiveSetMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		l := newLiveSet(64)
		var ref []uint64 // live slots, ascending
		next := uint64(0)
		for op := 0; op < 3000; op++ {
			switch {
			case next >= l.capacity() || rng.Float64() < 0.02:
				// Renumber to ranks, as the Profiler compacts.
				ranks := l.wordRanks()
				for i, s := range ref {
					if l.rank(s, ranks) != uint64(i) {
						return false
					}
					ref[i] = uint64(i)
				}
				l.fillDense(2*l.live + 64)
				next = l.live
			case len(ref) == 0 || rng.Float64() < 0.55:
				l.insert(next)
				ref = append(ref, next)
				next += 1 + rng.Uint64n(3)
			default:
				i := rng.Intn(len(ref))
				want := uint64(len(ref) - i - 1)
				if l.removeCountGreater(ref[i]) != want {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			if l.live != uint64(len(ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLiveSetBuildMatchesInserts checks the O(words) Fenwick build
// against the same set built by inserts.
func TestLiveSetBuildMatchesInserts(t *testing.T) {
	rng := stats.NewRNG(5)
	const n = 5000
	built, inserted := newLiveSet(n), newLiveSet(n)
	for s := uint64(0); s < n; s++ {
		if rng.Float64() < 0.3 {
			built.mark(s)
			inserted.insert(s)
		}
	}
	built.build()
	if built.live != inserted.live {
		t.Fatalf("live = %d, want %d", built.live, inserted.live)
	}
	for i := range built.fen {
		if built.fen[i] != inserted.fen[i] {
			t.Fatalf("fen[%d] = %d, want %d", i, built.fen[i], inserted.fen[i])
		}
	}
}
