package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ServerBenchRow is one measured concurrency level of the rdxd
// streaming service over loopback TCP.
type ServerBenchRow struct {
	Sessions    int     `json:"sessions"`
	Accesses    uint64  `json:"accesses"` // total across all sessions
	Batches     uint64  `json:"batches"`  // total frames streamed
	Seconds     float64 `json:"seconds"`
	AccessesSec float64 `json:"accesses_per_sec"`
	// AllocsPerBatch is whole-process heap allocations per streamed
	// batch (client encode + framing + server decode + engine execute),
	// the allocation cost of moving one batch through the ingest
	// pipeline.
	AllocsPerBatch float64 `json:"allocs_per_batch"`
	// ScalingVs1 is this row's throughput over the single-session row.
	ScalingVs1 float64 `json:"scaling_vs_1,omitempty"`
	// VsBaseline is this row's throughput over the same row of the
	// attached baseline record (0 when no baseline row matches).
	VsBaseline float64 `json:"vs_baseline,omitempty"`
	// AllocReduction is the fractional drop in AllocsPerBatch against
	// the baseline row (0.8 = 80% fewer allocations per batch).
	AllocReduction float64 `json:"alloc_reduction,omitempty"`
	// GoMaxProcs and Workers tag rows from the multicore sweep
	// (MULTICORE); 0 marks default rows, whose record-level fields
	// apply. Rows only compare within the same tag tuple.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Throttled marks rows run with a per-batch StepDelay on the
	// server, modelling a fixed service latency per batch (downstream
	// I/O, checkpoint fsync): their ScalingVs1 demonstrates how the
	// executor overlaps that latency across sessions, NOT CPU-parallel
	// speedup, and must never be compared against unthrottled rows.
	Throttled bool `json:"throttled,omitempty"`
	// Reps, MinAccessesSec, MaxAccessesSec and Spread record
	// measurement variance when the row was repeated: Seconds,
	// AccessesSec and AllocsPerBatch come from the median-throughput
	// rep, Spread is (max-min)/median throughput.
	Reps           int     `json:"reps,omitempty"`
	MinAccessesSec float64 `json:"min_accesses_per_sec,omitempty"`
	MaxAccessesSec float64 `json:"max_accesses_per_sec,omitempty"`
	Spread         float64 `json:"spread,omitempty"`
}

// sameConfig reports whether two rows measure the same configuration —
// the baseline-matching key. Session count alone stopped being unique
// once the multicore sweep added GOMAXPROCS/worker/throttle variants.
func (r ServerBenchRow) sameConfig(b ServerBenchRow) bool {
	return r.Sessions == b.Sessions && r.GoMaxProcs == b.GoMaxProcs &&
		r.Workers == b.Workers && r.Throttled == b.Throttled
}

// ServerBenchResult is the machine-readable service performance record
// emitted as BENCH_server.json: end-to-end streaming throughput
// (encode, loopback TCP, decode, engine) at increasing session
// concurrency, with the worker pool as the scaling limit. Baseline,
// when present, carries the same rows measured at the commit before a
// performance change — the committed benchmark trajectory future PRs
// are held to.
type ServerBenchResult struct {
	Timestamp  string           `json:"timestamp"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Workers    int              `json:"workers"`
	Accesses   uint64           `json:"accesses"`
	Period     uint64           `json:"period"`
	Rows       []ServerBenchRow `json:"rows"`
	Baseline   []ServerBenchRow `json:"baseline,omitempty"`
	// Pool is the sharded multi-backend dispatcher's scaling record
	// (RunPoolBench): aggregate throughput at 1, 2 and 4 fixed-capacity
	// backends.
	Pool []PoolBenchRow `json:"pool,omitempty"`
	// Wire is the wire-bandwidth record (RunWireBench): bytes per
	// access and compression ratio for each workload shape under v3
	// columnar framing. The strided v3 row's compression_ratio is the
	// committed baseline scripts/check.sh gates against.
	Wire []WireBenchRow `json:"wire,omitempty"`
}

// AttachBaseline records base's rows as the pre-change baseline and
// fills each current row's VsBaseline and AllocReduction from the
// baseline row with the same configuration (session count, GOMAXPROCS,
// workers, throttling).
func (r *ServerBenchResult) AttachBaseline(base *ServerBenchResult) {
	if base == nil {
		return
	}
	r.Baseline = base.Rows
	for i := range r.Rows {
		for _, b := range base.Rows {
			if !r.Rows[i].sameConfig(b) {
				continue
			}
			if b.AccessesSec > 0 {
				r.Rows[i].VsBaseline = r.Rows[i].AccessesSec / b.AccessesSec
			}
			if b.AllocsPerBatch > 0 {
				r.Rows[i].AllocReduction = 1 - r.Rows[i].AllocsPerBatch/b.AllocsPerBatch
			}
			break
		}
	}
}

// ReadServerBench loads a previously written BENCH_server.json record.
func ReadServerBench(path string) (*ServerBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ServerBenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// streamBatchSize is the per-frame batch size StreamSessions uses, and
// the divisor behind AllocsPerBatch.
const streamBatchSize = 8192

// StreamSessions drives `sessions` concurrent remote profiling runs of
// perSession accesses each against addr and returns the first error.
// Shared by RunServerBench and the root BenchmarkServerThroughput.
func StreamSessions(addr string, sessions int, perSession []mem.Access, cfg core.Config) error {
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			_, errs[i] = c.Profile(trace.FromSlice(perSession), cfg, wire.ProfileOptions{BatchSize: streamBatchSize})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureServerRow streams `sessions` concurrent runs (o.Accesses
// split evenly, so total work is constant across session counts)
// against addr, o.reps() times, and returns the median-throughput rep
// as a row with the variance band filled in.
func (o Options) measureServerRow(addr string, sessions int, cfg core.Config) (ServerBenchRow, error) {
	n := o.Accesses / uint64(sessions)
	accs, err := trace.Collect(trace.ZipfAccess(o.Seed, 0, 1<<14, 1.0, n))
	if err != nil {
		return ServerBenchRow{}, err
	}
	total := n * uint64(sessions)
	batchesPerSession := (n + streamBatchSize - 1) / streamBatchSize
	batches := batchesPerSession * uint64(sessions)

	type rep struct {
		seconds float64
		allocs  float64
	}
	reps := make([]rep, 0, o.reps())
	for i := 0; i < o.reps(); i++ {
		// Mallocs delta around the run gives allocations per batch for
		// the whole pipeline; a GC first keeps dead warm-up garbage from
		// inflating the count.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := StreamSessions(addr, sessions, accs, cfg); err != nil {
			return ServerBenchRow{}, fmt.Errorf("server bench (%d sessions): %w", sessions, err)
		}
		el := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		r := rep{seconds: el}
		if batches > 0 {
			r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(batches)
		}
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].seconds < reps[j].seconds })
	med := reps[len(reps)/2]

	row := ServerBenchRow{
		Sessions: sessions, Accesses: total, Batches: batches,
		Seconds: med.seconds, AllocsPerBatch: med.allocs,
	}
	if med.seconds > 0 {
		row.AccessesSec = float64(total) / med.seconds
	}
	if len(reps) > 1 {
		row.Reps = len(reps)
		row.MinAccessesSec = float64(total) / reps[len(reps)-1].seconds
		row.MaxAccessesSec = float64(total) / reps[0].seconds
		if row.AccessesSec > 0 {
			row.Spread = (row.MaxAccessesSec - row.MinAccessesSec) / row.AccessesSec
		}
	}
	return row, nil
}

// RunServerBench measures rdxd streaming throughput over loopback at 1,
// 4 and 16 concurrent sessions. Total work is held constant across
// rows (o.Accesses accesses split evenly), so ScalingVs1 isolates how
// well the worker pool overlaps sessions.
func (o Options) RunServerBench() (*ServerBenchResult, error) {
	workers := runtime.GOMAXPROCS(0)
	res := &ServerBenchResult{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: workers,
		Workers:    workers,
		Accesses:   o.Accesses,
		Period:     o.Period,
	}
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed

	s, err := server.New(server.Config{
		Workers: workers,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	s.Start()
	defer s.Close()

	for _, sessions := range []int{1, 4, 16} {
		row, err := o.measureServerRow(s.Addr(), sessions, cfg)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) > 0 && res.Rows[0].AccessesSec > 0 {
			row.ScalingVs1 = row.AccessesSec / res.Rows[0].AccessesSec
		}
		res.Rows = append(res.Rows, row)
	}

	for _, r := range res.Rows {
		note := ""
		if r.ScalingVs1 != 0 {
			note = fmt.Sprintf("(%.2fx vs 1 session)", r.ScalingVs1)
		}
		fmt.Fprintf(o.out(), "server-%02d-sessions         %12d accesses  %8.3fs  %14.0f accesses/sec  %8.1f allocs/batch  %s\n",
			r.Sessions, r.Accesses, r.Seconds, r.AccessesSec, r.AllocsPerBatch, note)
	}
	return res, nil
}

// WriteJSON writes the benchmark record to path.
func (r *ServerBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
