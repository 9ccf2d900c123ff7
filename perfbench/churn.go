package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// churnPeriod is dense enough that a short session still takes about
	// 64 samples.
	churnPeriod = 512
	// churnBatch and churnBatches size one short session.
	churnBatch   = 4096
	churnBatches = 8
	// churnWindows is how many distinct slices of each kernel's trace
	// the short sessions cycle through.
	churnWindows = 4
	// churnLoops is the number of client loops. One: a session's latency
	// is then its own open, batches, sync and what-ifs, not a wait for
	// the other loop's session to leave a core of a small shared host.
	churnLoops = 1
)

// churnVariant is one short session's input with its local references.
type churnVariant struct {
	accs []mem.Access
	// final is the local result in wire form (JSON); live and
	// finalReport are the what-if reports a local profile gives on the
	// synced prefix and on the finished stream.
	final, live, finalReport []byte
}

// sessionChurn runs many short sessions against one daemon.
type sessionChurn struct {
	variants []churnVariant
	cfg      core.Config
	d        *daemon
}

func newSessionChurn(ctx context.Context, b *bench, traces [][]mem.Access) (*sessionChurn, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = churnPeriod
	cfg.Seed = b.o.seed
	c := &sessionChurn{cfg: cfg}
	n := churnBatch * churnBatches
	for w := range churnWindows {
		for _, tr := range traces {
			off := w * len(tr) / churnWindows
			v := churnVariant{accs: tr[off : off+n]}
			if err := v.reference(ctx, cfg); err != nil {
				return nil, err
			}
			c.variants = append(c.variants, v)
		}
	}
	d, err := startDaemon(b)
	if err != nil {
		return nil, err
	}
	c.d = d
	return c, nil
}

// reference computes a variant's local answers: a profile of the whole
// slice, and what-if reports on the live snapshot and the final result.
func (v *churnVariant) reference(ctx context.Context, cfg core.Config) error {
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(ctx, trace.FromSlice(v.accs))
	if err != nil {
		return err
	}
	if v.final, err = json.Marshal(wire.FromCore(res, true)); err != nil {
		return err
	}
	if v.finalReport, err = whatIfJSON(res); err != nil {
		return err
	}
	p, err := core.NewProfiler(cfg)
	if err != nil {
		return err
	}
	m := p.NewMachine(rdx.DefaultCosts())
	for off := 0; off < len(v.accs); off += churnBatch {
		m.Execute(v.accs[off : off+churnBatch])
	}
	v.live, err = whatIfJSON(p.Snapshot())
	return err
}

func whatIfJSON(res *core.Result) ([]byte, error) {
	rep, err := res.WhatIf(rdx.TypicalHierarchy(), whatIfSpec, mrc.Sweep{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

type churnOut struct {
	win                   *window
	rates                 []float64 // accesses per second in each slice of the window
	sessions              int
	accesses              uint64
	sessionLat, whatifLat []sample
	openMS, finishMS      []float64
	daemon                metricsDelta
}

// churnLoop is one client loop's tally.
type churnLoop struct {
	accesses          uint64
	sessions, whatifs []sample
	openMS, finishMS  []float64
	retries           uint64
	finished          int
}

// run drives churnLoops closed client loops of short sessions until dur
// has passed and at least minSessions sessions finished.
func (c *sessionChurn) run(ctx context.Context, b *bench, dur time.Duration, minSessions int) (*churnOut, error) {
	m0, err := c.d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	loops := make([]churnLoop, min(churnLoops, b.nproc))
	var done, ids atomic.Int64
	var progress atomic.Uint64 // accesses of finished sessions
	var wg sync.WaitGroup
	win := startWindow()
	deadline := win.start.Add(dur)
	rate := startSampler(&progress, deadline)
	for l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || (done.Load() >= int64(minSessions) && !time.Now().Before(deadline)) {
					return
				}
				id := ids.Add(1)
				v := int(id) % len(c.variants)
				if err := c.session(ctx, b, v, uint64(id), &loops[l]); err != nil {
					cancel()
					return
				}
				done.Add(1)
				progress.Add(uint64(len(c.variants[v].accs)))
			}
		}()
	}
	wg.Wait()
	win.stop()
	if err := context.Cause(ctx); err != nil && err != context.Canceled {
		return nil, err
	}
	m1, err := c.d.metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := &churnOut{win: win, daemon: deltaOf(m0, m1)}
	out.rates = rate.finish(float64(progress.Load()) / win.seconds)
	var retries uint64
	for _, lp := range loops {
		out.accesses += lp.accesses
		out.sessionLat = append(out.sessionLat, lp.sessions...)
		out.whatifLat = append(out.whatifLat, lp.whatifs...)
		out.openMS = append(out.openMS, lp.openMS...)
		out.finishMS = append(out.finishMS, lp.finishMS...)
		out.sessions += lp.finished
		retries += lp.retries
	}
	b.retried(retries+out.daemon.retries, "session-churn")
	return out, nil
}

// session runs one short session: open, a few batches, sync, a what-if
// on the live session, finish, a what-if on the finished session.
func (c *sessionChurn) session(ctx context.Context, b *bench, vi int, id uint64, lp *churnLoop) error {
	v := &c.variants[vi]
	start := time.Now()
	sp := b.rec.start("churn.session", 0, id, 0)
	defer b.rec.finish(sp)
	rc := wire.NewReconnectingClient(c.d.addr, c.cfg, wire.RetryPolicy{SyncEvery: -1, Seed: id})
	defer rc.Close()

	osp := b.rec.start("server.open", sp.ID, id, 0)
	reply, err := rc.Open(ctx)
	b.rec.finish(osp)
	if !b.op(err, "session-churn: Open") {
		return err
	}
	lp.openMS = append(lp.openMS, ms(time.Since(start)))
	for j := range churnBatches {
		bs := b.rec.start("wire.send_batch", sp.ID, id, uint64(j+1))
		err := rc.SendBatch(ctx, v.accs[j*churnBatch:(j+1)*churnBatch])
		b.rec.finish(bs)
		if !b.op(err, "session-churn: SendBatch") {
			return err
		}
	}
	ss := b.rec.start("wire.sync", sp.ID, id, churnBatches)
	acked, err := rc.Sync(ctx)
	b.rec.finish(ss)
	if !b.op(err, "session-churn: Sync") {
		return err
	}
	b.check(acked == churnBatches, "session-churn: sync acknowledged batch %d, want %d", acked, churnBatches)

	live, err := c.whatIf(ctx, b, sp.ID, id, reply.Token, false, v.live)
	if err != nil {
		return err
	}

	fs := b.rec.start("server.finish", sp.ID, id, 0)
	t := time.Now()
	res, err := rc.Finish(ctx)
	lp.finishMS = append(lp.finishMS, ms(time.Since(t)))
	b.rec.finish(fs)
	if !b.op(err, "session-churn: Finish") {
		return err
	}
	end := time.Now()
	lp.sessions = append(lp.sessions, sample{end, ms(end.Sub(start))})
	lp.accesses += uint64(len(v.accs))
	lp.finished++
	st := rc.Stats()
	lp.retries += st.Reconnects + st.ReplayedBatches
	// Checked here rather than kept for later: thousands of retained
	// results would grow the heap the collector marks as the run goes on.
	got, err := json.Marshal(res)
	if b.op(err, "session-churn: encoding a final result") {
		b.check(string(got) == string(v.final), "session-churn: final result of variant %d differs from the local profile", vi)
	}

	final, err := c.whatIf(ctx, b, sp.ID, id, reply.Token, true, v.finalReport)
	if err != nil {
		return err
	}
	// One what-if sample per session, the mean of its two round trips:
	// the live answer restores a checkpoint and the final one does not,
	// so the two form separate modes, and a percentile over both would
	// sit in the gap between them, where a small shift of either mode
	// moves it far.
	lp.whatifs = append(lp.whatifs, sample{time.Now(), (live + final) / 2})
	return nil
}

// whatIf times one POST /whatif, checks the answer against the local
// report want, and returns the round trip in milliseconds.
func (c *sessionChurn) whatIf(ctx context.Context, b *bench, parent, id uint64, token string, final bool, want []byte) (float64, error) {
	name := "http.whatif_live"
	if final {
		name = "http.whatif_final"
	}
	sp := b.rec.start(name, parent, id, 0)
	t := time.Now()
	rep, err := c.d.whatIf(ctx, token)
	d := ms(time.Since(t))
	b.rec.finish(sp)
	if !b.op(err, "session-churn: "+name) {
		return 0, err
	}
	b.check(rep.Final == final && (final || rep.Seq == churnBatches) && string(rep.Report) == string(want),
		"session-churn: %s answer (final=%t seq=%d) differs from the local report", name, rep.Final, rep.Seq)
	return d, nil
}

// metrics adds the session and what-if latency metrics.
func (o *churnOut) metrics(b *bench, m map[string]float64) {
	for _, x := range []struct {
		name string
		xs   []sample
	}{{"session", o.sessionLat}, {"whatif", o.whatifLat}} {
		l := summarize(x.xs)
		b.check(l.beyond >= minBeyond, "session-churn: only %d %s samples beyond p90", l.beyond, x.name)
		fmt.Fprintf(b.out, "# %s latency: %d samples in %d chunks\n", x.name, l.n, l.chunks)
		m[x.name+"_p50_ms"] = l.p50
		m[x.name+"_p90_ms"] = l.p90
	}
}
