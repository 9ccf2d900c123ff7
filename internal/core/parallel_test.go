package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestProfileThreadsMatchesSingleThread(t *testing.T) {
	// Four threads each running the same kernel over disjoint regions
	// must merge to the same histogram shape as one thread running it.
	const n = 200000
	mkThread := func(i int) trace.Reader {
		return trace.Cyclic(mem.Addr(i)<<40, 700, n)
	}
	cfg := testConfig(500)
	multi, err := ProfileThreads(context.Background(), []trace.Reader{mkThread(0), mkThread(1), mkThread(2), mkThread(3)}, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	single := runRDX(t, cfg, mkThread(0))
	if acc := histogram.Accuracy(multi.ReuseDistance, single.ReuseDistance); acc < 0.95 {
		t.Errorf("merged histogram diverges from per-thread shape: accuracy %v", acc)
	}
	if multi.Accesses != 4*n {
		t.Errorf("merged accesses = %d, want %d", multi.Accesses, 4*n)
	}
	if len(multi.Threads) != 4 {
		t.Errorf("threads = %d", len(multi.Threads))
	}
	if multi.ReusePairs == 0 || multi.Samples == 0 {
		t.Error("merged counters empty")
	}
}

func TestProfileThreadsAgainstExactPerThread(t *testing.T) {
	// Merged multi-thread measurement vs merged per-thread ground truth.
	const n = 300000
	mk := func(i int) trace.Reader {
		return trace.ZipfAccess(uint64(i)+3, mem.Addr(i)<<40, 5000, 1.0, n)
	}
	cfg := testConfig(400)
	multi, err := ProfileThreads(context.Background(), []trace.Reader{mk(0), mk(1)}, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gtMerged := histogram.New()
	for i := 0; i < 2; i++ {
		gt, err := exact.Measure(mk(i), mem.WordGranularity)
		if err != nil {
			t.Fatal(err)
		}
		gtMerged.AddHistogram(gt.ReuseDistance())
	}
	if acc := histogram.Accuracy(multi.ReuseDistance, gtMerged); acc < 0.85 {
		t.Errorf("multi-thread accuracy = %v, want >= 0.85", acc)
	}
}

func TestProfileThreadsHeterogeneous(t *testing.T) {
	// A streaming thread plus a cache-resident thread: the merged
	// histogram must contain both cold mass and short-distance mass.
	const n = 200000
	cfg := testConfig(500)
	multi, err := ProfileThreads(context.Background(), []trace.Reader{
		trace.Sequential(0, n, 8),   // all cold
		trace.Cyclic(1<<40, 100, n), // all short reuses
	}, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rd := multi.ReuseDistance
	if rd.Cold() == 0 {
		t.Error("merged histogram lost the streaming thread's cold mass")
	}
	if rd.TotalFinite() == 0 {
		t.Error("merged histogram lost the hot thread's reuse mass")
	}
	coldFrac := rd.Cold() / rd.Total()
	if math.Abs(coldFrac-0.5) > 0.15 {
		t.Errorf("cold fraction = %v, want ~0.5 (half the threads stream)", coldFrac)
	}
}

func TestProfileThreadsMergedAttribution(t *testing.T) {
	const n = 200000
	cfg := testConfig(300)
	multi, err := ProfileThreads(context.Background(), []trace.Reader{
		trace.Tag(0x1000, trace.Cyclic(0, 64, n)),
		trace.Tag(0x2000, trace.Cyclic(1<<40, 64, n)),
	}, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[mem.Addr]bool{}
	for _, p := range multi.Attribution {
		seen[p.Pair.UsePC] = true
	}
	if !seen[0x1000] || !seen[0x2000] {
		t.Errorf("merged attribution missing a thread's pairs: %+v", multi.Attribution)
	}
}

func TestProfileThreadsErrors(t *testing.T) {
	if _, err := ProfileThreads(context.Background(), nil, DefaultConfig(), cpumodel.Default(), 0); err == nil {
		t.Error("empty stream list accepted")
	}
	if _, err := ProfileThreads(context.Background(), []trace.Reader{trace.Cyclic(0, 8, 100)}, Config{}, cpumodel.Default(), 0); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCrossThreadReuseInvisible(t *testing.T) {
	// Documented limitation: a block used by thread A and reused only by
	// thread B is never observed as a reuse (per-thread debug
	// registers). Both threads see their own stream as streaming.
	const n = 100000
	// Thread A touches even words once; thread B touches the same words
	// afterwards. Within each thread no address repeats.
	a := trace.Sequential(0, n, 8)
	b := trace.Sequential(0, n, 8) // same addresses, different thread
	multi, err := ProfileThreads(context.Background(), []trace.Reader{a, b}, testConfig(500), cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if multi.ReusePairs != 0 {
		t.Errorf("cross-thread reuses observed (%d pairs); per-thread contexts should miss them", multi.ReusePairs)
	}
}

func TestMultiResultTimeOverheadIsWorstThread(t *testing.T) {
	const n = 200000
	multi, err := ProfileThreads(context.Background(), []trace.Reader{
		trace.Cyclic(0, 64, n),
		trace.Cyclic(1<<40, 64, n/10), // short thread
	}, testConfig(500), cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, r := range multi.Threads {
		if oh := r.TimeOverhead(); oh > worst {
			worst = oh
		}
	}
	if multi.TimeOverhead() != worst {
		t.Errorf("TimeOverhead = %v, want max per-thread %v", multi.TimeOverhead(), worst)
	}
}

func TestProfileThreadsPoolBoundsWorkers(t *testing.T) {
	// Far more streams than workers: the pool must multiplex them all
	// and produce results identical to any other pool size (per-thread
	// seeds derive from the stream index alone).
	const n, streams = 30000, 32
	mk := func() []trace.Reader {
		rs := make([]trace.Reader, streams)
		for i := range rs {
			rs[i] = trace.ZipfAccess(uint64(i)+1, mem.Addr(i)<<40, 800, 1.0, n)
		}
		return rs
	}
	cfg := testConfig(500)
	narrow, err := ProfileThreads(context.Background(), mk(), cfg, cpumodel.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ProfileThreads(context.Background(), mk(), cfg, cpumodel.Default(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Threads) != streams || len(wide.Threads) != streams {
		t.Fatalf("thread results = %d/%d, want %d", len(narrow.Threads), len(wide.Threads), streams)
	}
	if narrow.Accesses != streams*n {
		t.Fatalf("accesses = %d, want %d", narrow.Accesses, streams*n)
	}
	// Per-thread results are fully deterministic, so pool size must not
	// change a single byte of them.
	for i := range narrow.Threads {
		if !reflect.DeepEqual(narrow.Threads[i], wide.Threads[i]) {
			t.Fatalf("thread %d result depends on pool size", i)
		}
	}
	if !reflect.DeepEqual(narrow.ReuseDistance, wide.ReuseDistance) {
		t.Fatal("merged histogram depends on pool size")
	}
}

// failingReader yields `good` accesses, then fails with a permanent
// error — a stand-in for a stream whose source (file, socket) dies
// mid-run.
type failingReader struct {
	good int
	err  error
}

func (f *failingReader) Read(dst []mem.Access) (int, error) {
	n := 0
	for n < len(dst) && f.good > 0 {
		dst[n] = mem.Access{Addr: mem.Addr(n) * 8, Size: 8}
		n++
		f.good--
	}
	if f.good == 0 && n < len(dst) {
		return n, f.err
	}
	return n, nil
}

func TestProfileThreadsPoolEdgeCases(t *testing.T) {
	cfg := testConfig(500)
	costs := cpumodel.Default()

	t.Run("no streams", func(t *testing.T) {
		if _, err := ProfileThreads(context.Background(), nil, cfg, costs, 4); err == nil {
			t.Error("empty stream slice accepted")
		}
		if _, err := ProfileThreads(context.Background(), []trace.Reader{}, cfg, costs, 4); err == nil {
			t.Error("zero-length stream slice accepted")
		}
	})

	t.Run("workers non-positive selects GOMAXPROCS", func(t *testing.T) {
		mk := func() []trace.Reader {
			return []trace.Reader{
				trace.Cyclic(0, 300, 50000),
				trace.Cyclic(1<<40, 300, 50000),
			}
		}
		for _, w := range []int{0, -1, -100} {
			got, err := ProfileThreads(context.Background(), mk(), cfg, costs, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			want, err := ProfileThreads(context.Background(), mk(), cfg, costs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.ReuseDistance, want.ReuseDistance) {
				t.Errorf("workers=%d: result differs from explicit pool", w)
			}
		}
	})

	t.Run("stream error surfaces without deadlock", func(t *testing.T) {
		streamErr := errors.New("stream died mid-run")
		streams := []trace.Reader{
			trace.Cyclic(0, 300, 30000),
			&failingReader{good: 10000, err: streamErr},
			trace.Cyclic(1<<40, 300, 30000),
			trace.Cyclic(2<<40, 300, 30000),
		}
		done := make(chan struct{})
		var res *MultiResult
		var err error
		go func() {
			defer close(done)
			res, err = ProfileThreads(context.Background(), streams, cfg, costs, 2)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("ProfileThreads deadlocked on a failing stream")
		}
		if err == nil {
			t.Fatalf("failing stream produced no error (res=%v)", res)
		}
		if !errors.Is(err, streamErr) {
			t.Errorf("error does not wrap the stream's error: %v", err)
		}
		if !strings.Contains(err.Error(), "thread 1") {
			t.Errorf("error does not name the failing thread: %v", err)
		}
	})
}

// endless is a Reader that never returns EOF: cancellation tests use it
// to prove ProfileThreads can only be stopped by its context.
type endless struct{ next uint64 }

func (e *endless) Read(buf []mem.Access) (int, error) {
	for i := range buf {
		buf[i] = mem.Access{Addr: mem.Addr(e.next % 4096 * 8), PC: 0x400000, Kind: mem.Load, Size: 8}
		e.next++
	}
	return len(buf), nil
}

func TestProfileThreadsContextCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ProfileThreads(ctx, []trace.Reader{&endless{}, &endless{}}, testConfig(500), cpumodel.Default(), 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the workers get deep into the endless streams
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop an endless profile")
	}
}

func TestProfileThreadsContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileThreads(ctx, []trace.Reader{&endless{}}, testConfig(500), cpumodel.Default(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

func TestThreadConfigDerivation(t *testing.T) {
	cfg := testConfig(500)
	if got := ThreadConfig(cfg, 0); got != cfg {
		t.Errorf("thread 0 must run the base config: %+v vs %+v", got, cfg)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		tc := ThreadConfig(cfg, i)
		if seen[tc.Seed] {
			t.Errorf("thread %d reuses a seed", i)
		}
		seen[tc.Seed] = true
		tc.Seed = cfg.Seed
		if tc != cfg {
			t.Errorf("thread %d changed more than the seed: %+v", i, tc)
		}
	}
}

// TestMergerIncrementalMatchesBatch proves the exported Merger is the
// same merge MergeResults performs: adding results one at a time (as a
// remote dispatcher does) yields a bit-identical MultiResult.
func TestMergerIncrementalMatchesBatch(t *testing.T) {
	cfg := testConfig(300)
	var results []*Result
	for i := 0; i < 4; i++ {
		p, err := NewProfiler(ThreadConfig(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(trace.ZipfAccess(uint64(50+i), mem.Addr(uint64(i)<<40), 2048, 1.0, 60000), cpumodel.Default())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	want := MergeResults(results)
	g := NewMerger()
	for _, r := range results {
		g.Add(r)
	}
	got := g.Result()
	if !reflect.DeepEqual(got.ReuseDistance.Snapshot(), want.ReuseDistance.Snapshot()) {
		t.Error("merged reuse-distance histograms differ")
	}
	if !reflect.DeepEqual(got.Attribution, want.Attribution) {
		t.Error("merged attributions differ")
	}
	if got.Accesses != want.Accesses || got.Samples != want.Samples || got.ReusePairs != want.ReusePairs {
		t.Error("merged counters differ")
	}
	for i := range want.Threads {
		if got.Threads[i] != want.Threads[i] {
			t.Error("thread results not retained in order")
		}
	}
}

func TestMergerMisuse(t *testing.T) {
	g := NewMerger()
	g.Result()
	for _, f := range []func(){func() { g.Add(&Result{}) }, func() { g.Result() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Merger misuse after Result did not panic")
				}
			}()
			f()
		}()
	}
}
