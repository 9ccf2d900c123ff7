package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/workloads"
)

// kernels are the suite kernels every phase profiles: streaming and
// cold-heavy (lbm), pointer chase plus hot table (mcf), Zipf lookups
// that are an accuracy straggler (xalancbmk), and cache-resident with
// dense traps (exchange2).
var kernels = []string{"lbm", "mcf", "xalancbmk", "exchange2"}

// kernelAccesses is the length of each kernel's generated trace.
const kernelAccesses = 4 << 20

// A run sets its workload up at least minSetupReps times, and a cheap
// set-up again until setupBudget has passed (at most maxSetupReps
// times); setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

// runDeadline bounds a whole run, so a wedged phase fails the run
// instead of hanging it.
const runDeadline = 170 * time.Second

// bench is the state of one run: options, the span recorder of a traced
// stretch, and the tally of operations attempted and failed.
type bench struct {
	o      options
	nproc  int
	out    io.Writer
	rec    *recorder // non-nil only while a traced stretch runs
	tally  atomic.Uint64
	failed atomic.Uint64
	mu     sync.Mutex
	errs   []string
}

// op counts one operation and records its failure, if any. It reports
// whether the operation succeeded.
func (b *bench) op(err error, what string) bool {
	b.tally.Add(1)
	if err != nil {
		b.fail(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one correctness check and records it when it fails.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.tally.Add(1)
	if !ok {
		b.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

// retried counts operations the client or daemon had to repeat (shed
// opens, dropped or replayed batches, resume failures, reconnects) as
// attempted and failed: on loopback with no faults there are none.
func (b *bench) retried(n uint64, what string) {
	if n > 0 {
		b.tally.Add(n)
		b.failed.Add(n - 1)
		b.fail(fmt.Sprintf("%s: %d retries", what, n))
	}
}

func (b *bench) fail(msg string) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, msg)
	}
	b.mu.Unlock()
}

// environment is everything a run sets up: the kernel traces and the
// three phases built on them.
type environment struct {
	traces [][]mem.Access
	local  *localSuite
	stream *streamSteady
	churn  *sessionChurn
}

// close stops the daemons and drops the phases; the traces stay.
func (e *environment) close() {
	if e.stream != nil {
		e.stream.d.close()
	}
	if e.churn != nil {
		e.churn.d.close()
	}
	e.local, e.stream, e.churn = nil, nil, nil
}

// genTraces builds the kernels' access streams from the seed, outside
// the Go heap. The traces are hundreds of megabytes that stay live for
// the whole run; on the heap they would raise the collector's goal so
// far that the system's own garbage would almost never be collected,
// unlike in a standalone daemon or client. Free them with freeTraces.
func genTraces(seed uint64) ([][]mem.Access, error) {
	out := make([][]mem.Access, 0, len(kernels))
	for _, name := range kernels {
		r, err := workloads.Build(name, seed, kernelAccesses)
		if err != nil {
			freeTraces(out)
			return nil, err
		}
		buf, err := syscall.Mmap(-1, 0, kernelAccesses*accessBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			freeTraces(out)
			return nil, fmt.Errorf("mapping the %s trace: %w", name, err)
		}
		tr := unsafe.Slice((*mem.Access)(unsafe.Pointer(&buf[0])), kernelAccesses)
		out = append(out, tr)
		n := 0
		for n < len(tr) {
			k, err := r.Read(tr[n:])
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				freeTraces(out)
				return nil, fmt.Errorf("generating %s: %w", name, err)
			}
		}
		out[len(out)-1] = tr[:n]
	}
	return out, nil
}

// accessBytes is the in-memory size of one access; mem.Access holds no
// pointers, so it may live in memory the collector does not manage.
const accessBytes = int(unsafe.Sizeof(mem.Access{}))

// freeTraces unmaps traces made by genTraces.
func freeTraces(traces [][]mem.Access) {
	for _, tr := range traces {
		syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tr))), cap(tr)*accessBytes))
	}
}

// setupPhase builds one workload's phase on e's traces.
func (e *environment) setupPhase(ctx context.Context, b *bench, name string) error {
	var err error
	switch name {
	case "local-suite":
		e.local, err = newLocalSuite(b, e.traces)
	case "stream-steady":
		e.stream, err = newStreamSteady(ctx, b, e.traces)
	case "session-churn":
		e.churn, err = newSessionChurn(ctx, b, e.traces)
	}
	if err != nil {
		return fmt.Errorf("setting up %s: %w", name, err)
	}
	return nil
}

// setup builds the environment: the kernel traces once, then the
// measured workload several times, timed, then the other phases once.
// Generating the traces is the benchmark's own work and is not timed.
func setup(ctx context.Context, b *bench) (*environment, []float64, error) {
	traces, err := genTraces(b.o.seed)
	if err != nil {
		return nil, nil, err
	}
	env := &environment{traces: traces}
	fail := func(err error) (*environment, []float64, error) {
		env.close()
		freeTraces(traces)
		return nil, nil, err
	}
	var times []float64
	for begin := time.Now(); ; {
		env.close()
		runtime.GC()
		start := time.Now()
		if err := env.setupPhase(ctx, b, b.o.workload); err != nil {
			return fail(err)
		}
		times = append(times, time.Since(start).Seconds())
		if b.o.trace { // a traced run does not report setup_s
			break
		}
		if n := len(times); n >= maxSetupReps || n >= minSetupReps && time.Since(begin) >= setupBudget {
			break
		}
	}
	for _, name := range phases {
		if name == b.o.workload {
			continue
		}
		if err := env.setupPhase(ctx, b, name); err != nil {
			return fail(err)
		}
	}
	return env, times, nil
}

// A run measures in short blocks. Each block runs the stream-steady and
// session-churn phases for their quota and the measured phase for its
// share of the window; a local-suite round outlasts a share, so that
// phase skips the blocks it is ahead in. Every timing is a median over
// the slices, rounds or latency chunks of all blocks together. The
// blocks interleave the phases, so each phase is sampled at many moments
// spread over the run: the speed of a shared host swings by a third
// from one second to the next, and a median over many moments moves far
// less than one taken in a few seconds at a stretch.
const blocks = 10

// Per-block quotas: the least work a phase does in a block, whether or
// not it is the measured workload. Over the blocks they give every
// latency series at least five chunks of chunkLen samples.
const (
	localQuota  = 1   // ProfileThreads rounds
	streamQuota = 64  // timed syncs
	churnQuota  = 200 // sessions
)

// warmShare is the share of its quota a phase runs as warm-up.
const warmShare = 4

// outcome collects what the phases measured.
type outcome struct {
	local  *localOut
	stream *streamOut
	churn  *churnOut
}

// runPhase runs one phase for dur and at least its quota divided by
// share, stores its output in out, and returns the phase's window.
func (e *environment) runPhase(ctx context.Context, b *bench, name string, dur time.Duration, share int, out *outcome) (*window, error) {
	switch name {
	case "local-suite":
		o, err := e.local.run(ctx, b, dur, max(localQuota/share, 1))
		if err != nil {
			return nil, err
		}
		out.local = o
		return o.win, nil
	case "stream-steady":
		o, err := e.stream.run(ctx, b, dur, streamQuota/share)
		if err != nil {
			return nil, err
		}
		out.stream = o
		return o.win, nil
	default:
		o, err := e.churn.run(ctx, b, dur, churnQuota/share)
		if err != nil {
			return nil, err
		}
		out.churn = o
		return o.win, nil
	}
}

// accessesOf returns how many accesses the named phase completed and
// its rates in accesses per second, one per slice or round.
func (out *outcome) accessesOf(name string) (n uint64, rates []float64) {
	switch name {
	case "local-suite":
		return out.local.accesses, out.local.rates
	case "stream-steady":
		return out.stream.accesses, out.stream.rates
	default:
		return out.churn.accesses, out.churn.rates
	}
}

// runCompanions runs, at their quota, the phases other than the
// measured one; local-suite only when withLocal is set, since nothing
// it reports depends on timing.
func (e *environment) runCompanions(ctx context.Context, b *bench, withLocal bool, out *outcome) error {
	for _, name := range phases {
		if name == b.o.workload || name == "local-suite" && !withLocal {
			continue
		}
		if _, err := e.runPhase(ctx, b, name, 0, 1, out); err != nil {
			return err
		}
	}
	return nil
}

func runBench(o options, stdout io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{o: o, nproc: runtime.GOMAXPROCS(0), out: stdout}
	spec := lookupWorkload(o.workload)
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%t kernels=%s period=%d; client loops: stream-steady %d, session-churn %d\n",
		o.workload, o.seed, o.seconds, o.trace, strings.Join(kernels, ","), spec.period, b.nproc, min(churnLoops, b.nproc))
	fmt.Fprintf(stdout, "# why: %s\n", spec.why)

	var rec *recorder
	if o.trace {
		rec = newRecorder()
		b.rec = rec
	}
	env, setupTimes, err := setup(ctx, b)
	b.rec = nil
	if err != nil {
		return nil, err
	}
	defer freeTraces(env.traces)
	defer env.close()

	// A local-suite round is seconds long and starts from a fresh
	// session, so it is not warmed up; the median over the rounds
	// absorbs a slow first one.
	if o.workload != "local-suite" {
		if _, err := env.runPhase(ctx, b, o.workload, 0, warmShare, &outcome{}); err != nil {
			return nil, err
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(ctx, b, env, rec, window)
	}

	// The latency series and rates of all blocks, pooled.
	var local *localOut
	stream, churn := &streamOut{}, &churnOut{}
	var rates, allocs []float64 // per slice; per block, bytes per access
	var spent time.Duration     // measured phase time so far
	for blk := range blocks {
		var out outcome
		if err := env.runCompanions(ctx, b, blk == 0, &out); err != nil {
			return nil, err
		}
		var r []float64
		if due := window*time.Duration(blk+1)/blocks - spent; due > 0 {
			win, err := env.runPhase(ctx, b, o.workload, due, 1, &out)
			if err != nil {
				return nil, err
			}
			spent += time.Duration(win.seconds * float64(time.Second))
			var n uint64
			n, r = out.accessesOf(o.workload)
			rates = append(rates, r...)
			allocs = append(allocs, float64(win.dAllocBytes)/float64(n))
		}
		if local == nil {
			local = out.local
		}
		// The measured phase may have skipped this block.
		if s := out.stream; s != nil {
			stream.syncs = append(stream.syncs, s.syncs...)
			stream.wireBytesPerAccess, stream.kernelsSent = s.wireBytesPerAccess, s.kernelsSent
			stream.sessions += s.sessions
		}
		churn.sessionLat = append(churn.sessionLat, out.churn.sessionLat...)
		churn.whatifLat = append(churn.whatifLat, out.churn.whatifLat...)
		churn.sessions += out.churn.sessions
		fmt.Fprintf(stdout, "# block %d: %s rates %.4g; %d stream sessions, %d churn sessions so far\n",
			blk+1, b.o.workload, r, stream.sessions, churn.sessions)
	}
	// Allocation is the least over the blocks: a garbage collection in
	// the middle of a block empties the system's buffer pools, and the
	// block then allocates them again, so a block has one of two values
	// according to whether a cycle fell inside it, and a median over a
	// handful of blocks would flip between them from run to run.
	fmt.Fprintf(stdout, "# accesses_per_s: median of %d slices; alloc_bytes_per_access: least of %d blocks %.4g\n", len(rates), len(allocs), allocs)
	m := map[string]float64{
		"accesses_per_s":         median(rates),
		"alloc_bytes_per_access": slices.Min(allocs),
	}
	stream.metrics(b, m)
	churn.metrics(b, m)
	local.metrics(b, m)
	env.stream.metrics(m)
	m["setup_s"] = median(setupTimes)
	fmt.Fprintf(stdout, "# setup_s: median of %d set-ups %v\n", len(setupTimes), setupTimes)
	return b.finish(m), nil
}

// runTraced is the traced run: the other phases once at their quota,
// the measured phase for half the window untraced and half traced (the
// difference in throughput is the tracing overhead), then the stage
// ledger.
func runTraced(ctx context.Context, b *bench, env *environment, rec *recorder, window time.Duration) (*result, error) {
	var out outcome
	if err := env.runCompanions(ctx, b, true, &out); err != nil {
		return nil, err
	}
	win, err := env.runPhase(ctx, b, b.o.workload, window/2, 1, &out)
	if err != nil {
		return nil, err
	}
	b.rec = rec
	var traced outcome
	if _, err := env.runPhase(ctx, b, b.o.workload, window/2, 1, &traced); err != nil {
		return nil, err
	}
	l, err := runLedger(ctx, b, env, &out)
	b.rec = nil
	if err != nil {
		return nil, err
	}
	_, untraced := out.accessesOf(b.o.workload)
	_, tracedRates := traced.accessesOf(b.o.workload)
	untracedRate, tracedRate := median(untraced), median(tracedRates)
	l.traceOverheadPct = 100 * (untracedRate/tracedRate - 1)
	fmt.Fprintf(b.out, "# tracing overhead: accesses_per_s %.4g untraced, %.4g traced\n", untracedRate, tracedRate)
	if _, err := rec.write(b.o.spanDir, fmt.Sprintf("%s-seed%d.json", b.o.workload, b.o.seed), b.out); err != nil {
		return nil, err
	}
	m := perLayerMetrics(l, env, &out, win.gcFraction())
	printLedger(b.out, l, env, m, &out)
	return b.finish(m), nil
}

// finish turns the measured values into the result object, checking
// that every value is finite.
func (b *bench) finish(vals map[string]float64) *result {
	specs := endToEnd
	if b.o.trace {
		specs = perLayer
	}
	res := &result{Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := vals[s.name]
		if b.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s missing or not finite (%v)", s.name, v) {
			res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		}
		fmt.Fprintf(b.out, "%-32s %16.6g %s\n", s.name, v, s.unit)
	}
	b.mu.Lock()
	errs := append([]string(nil), b.errs...)
	b.mu.Unlock()
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(b.out, "# FAILED: %s\n", e)
	}
	res.Attempted = b.tally.Load()
	res.Failed = b.failed.Load()
	res.Correct = res.Failed == 0
	fmt.Fprintf(b.out, "# error_rate=%g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res
}
