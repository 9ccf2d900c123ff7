package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// localPeriod is dense enough for about 500 samples per kernel, the
// operating point of the suite accuracy experiment.
const localPeriod = kernelAccesses / 512

// localReplicas is how many threads profile each kernel's trace, each
// sampling under its own seed. A kernel's accuracy is the median over its
// threads: at about 500 samples a single xalancbmk profile lands near
// 0.4 instead of 0.85 about one time in five, and the median keeps that
// bimodal draw from deciding the run.
const localReplicas = 16

// accuracyFloor is the committed per-kernel accuracy floor against the
// exact oracle at localPeriod; a kernel below it fails the run.
var accuracyFloor = map[string]float64{
	"lbm":       0.90,
	"mcf":       0.80,
	"xalancbmk": 0.75,
	"exchange2": 0.90,
}

// localSuite profiles the kernels in process as the threads of one
// program.
type localSuite struct {
	traces [][]mem.Access
	cfg    core.Config
	exact  []*histogram.Histogram
	// exactSeconds and exactAccesses time the exact oracle in setup.
	exactSeconds  float64
	exactAccesses uint64
}

func newLocalSuite(b *bench, traces [][]mem.Access) (*localSuite, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = localPeriod
	cfg.Seed = b.o.seed
	l := &localSuite{traces: traces, cfg: cfg, exact: make([]*histogram.Histogram, len(traces))}
	for i, tr := range traces {
		sp := b.rec.start("exact.measure_auto", 0, 0, uint64(i+1))
		start := time.Now()
		res, err := exact.MeasureAuto(trace.FromSlice(tr), mem.WordGranularity, exact.AutoOptions{SizeHint: uint64(len(tr))})
		l.exactSeconds += time.Since(start).Seconds()
		b.rec.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("exact oracle on %s: %w", kernels[i], err)
		}
		l.exact[i] = res.ReuseDistance()
		l.exactAccesses += uint64(len(tr))
	}
	return l, nil
}

type localOut struct {
	win      *window
	rates    []float64 // accesses per second of each round
	rounds   int
	accesses uint64
	threads  []*core.Result
	accuracy []float64
}

// run repeats the ProfileThreads run until dur has passed and at least
// minRounds rounds ran. Every round must be bit-identical to the first,
// and the first must meet each kernel's accuracy floor.
func (l *localSuite) run(ctx context.Context, b *bench, dur time.Duration, minRounds int) (*localOut, error) {
	sess := rdx.New(rdx.WithConfig(l.cfg), rdx.WithWorkers(b.nproc))
	out := &localOut{}
	var first []byte
	readers := make([]rdx.Reader, localReplicas*len(l.traces))
	out.win = startWindow()
	deadline := out.win.start.Add(dur)
	for out.rounds < minRounds || time.Now().Before(deadline) {
		for i := range readers {
			readers[i] = trace.FromSlice(l.traces[i%len(l.traces)])
		}
		out.rounds++
		sp := b.rec.start("rdx.profile_threads", 0, uint64(out.rounds), 0)
		start := time.Now()
		m, err := sess.ProfileThreads(ctx, readers)
		b.rec.finish(sp)
		if !b.op(err, "local-suite: ProfileThreads") {
			return nil, err
		}
		out.rates = append(out.rates, float64(m.Accesses)/time.Since(start).Seconds())
		out.accesses += m.Accesses
		digest, err := json.Marshal([]any{m.ReuseDistance, m.ReuseTime, m.Samples, m.ReusePairs})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = digest
			out.threads = m.Threads
		} else {
			b.check(string(digest) == string(first), "local-suite: round %d differs from round 1", out.rounds)
		}
	}
	out.win.stop()
	for k := range l.traces {
		var accs []float64
		for i := k; i < len(out.threads); i += len(l.traces) {
			accs = append(accs, rdx.Accuracy(out.threads[i].ReuseDistance, l.exact[k]))
		}
		acc := median(accs)
		out.accuracy = append(out.accuracy, acc)
		b.check(acc >= accuracyFloor[kernels[k]], "local-suite: %s accuracy %.4f below floor %.2f", kernels[k], acc, accuracyFloor[kernels[k]])
	}
	return out, nil
}

// metrics adds the accuracy metrics: the mean and the least of the
// per-kernel accuracies.
func (o *localOut) metrics(b *bench, m map[string]float64) {
	for k, a := range o.accuracy {
		fmt.Fprintf(b.out, "# accuracy %s %.4f (median of %d threads)\n", kernels[k], a, localReplicas)
	}
	minAcc := o.accuracy[0]
	for _, a := range o.accuracy {
		minAcc = min(minAcc, a)
	}
	m["accuracy_mean"] = mean(o.accuracy)
	m["accuracy_min"] = minAcc
}
