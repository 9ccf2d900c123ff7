package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

const (
	// streamPeriod is the paper's featherlight sampling period.
	streamPeriod = 64 << 10
	// streamBatch is the accesses per SendBatch.
	streamBatch = 8192
	// syncEvery is the RetryPolicy's default sync cadence, in batches.
	syncEvery = 32
)

// baselineRSSBytes is the non-data resident set the suite's memory
// overhead model adds to each kernel's data footprint: the denominator
// of the paper's memory-overhead ratio, as the F5 experiment computes it.
const baselineRSSBytes = 56 << 20

// streamSteady streams whole kernel traces through long resilient
// sessions (512 batches, 16 syncs each) and checks each final result
// against a local profile.
type streamSteady struct {
	traces [][]mem.Access
	cfg    core.Config
	refs   [][]byte // per kernel: the local result in wire form, JSON
	// timeOvh and memOvh are the local profiles' modelled overheads in
	// percent: the cpumodel figures behind the paper's claims, at the
	// featherlight period.
	timeOvh, memOvh []float64
	d               *daemon
	// ids numbers the sessions of the whole run; session id streams
	// kernel id mod len(kernels), so every stretch of sessions cycles
	// through the kernels in turn.
	ids atomic.Uint64
	// sent is the bytes the first session of each kernel wrote to the
	// wire; every later session of the kernel must write as many.
	sent map[int]uint64
}

func newStreamSteady(ctx context.Context, b *bench, traces [][]mem.Access) (*streamSteady, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = streamPeriod
	cfg.Seed = b.o.seed
	s := &streamSteady{traces: traces, cfg: cfg, sent: make(map[int]uint64)}
	local := rdx.New(rdx.WithConfig(cfg))
	for k, tr := range traces {
		res, err := local.Profile(ctx, trace.FromSlice(tr))
		if err != nil {
			return nil, err
		}
		w, err := workloads.ByName(kernels[k])
		if err != nil {
			return nil, err
		}
		s.timeOvh = append(s.timeOvh, 100*res.TimeOverhead())
		s.memOvh = append(s.memOvh, 100*res.MemOverhead(baselineRSSBytes+w.FootprintWords*8))
		ref, err := json.Marshal(wire.FromCore(res, true))
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, ref)
	}
	d, err := startDaemon(b)
	if err != nil {
		return nil, err
	}
	s.d = d
	return s, nil
}

type streamOut struct {
	win      *window
	rates    []float64 // accesses per second in each slice of the window
	sessions int
	accesses uint64
	batches  uint64
	syncs    []sample
	// wireBytesPerAccess is the mean over the kernels streamed so far in
	// the run of the bytes a session wrote to the wire per access.
	wireBytesPerAccess float64
	kernelsSent        int // kernels that have streamed so far in the run
	daemon             metricsDelta
}

// streamLoop is one client loop's tally.
type streamLoop struct {
	accesses, batches uint64
	syncs             []sample
	retries           uint64
	finals            []streamFinal
}

type streamFinal struct {
	kernel int
	res    *wire.Result
	// sent is the bytes the client wrote to the wire in the session.
	sent uint64
}

// tapConn counts the bytes a client writes to its connection.
type tapConn struct {
	net.Conn
	sent *uint64
}

func (c tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.sent += uint64(n)
	return n, err
}

// run drives nproc closed client loops, each streaming sessions back to
// back, until dur has passed and at least minSyncs syncs were timed.
func (s *streamSteady) run(ctx context.Context, b *bench, dur time.Duration, minSyncs int) (*streamOut, error) {
	m0, err := s.d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	loops := make([]streamLoop, b.nproc)
	var syncs atomic.Int64
	var progress atomic.Uint64 // accesses acknowledged by SendBatch
	var wg sync.WaitGroup
	win := startWindow()
	deadline := win.start.Add(dur)
	rate := startSampler(&progress, deadline)
	for l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || (syncs.Load() >= int64(minSyncs) && !time.Now().Before(deadline)) {
					return
				}
				id := s.ids.Add(1)
				if err := s.session(ctx, b, int(id%uint64(len(kernels))), id, &loops[l], &syncs, &progress); err != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	win.stop()
	if err := context.Cause(ctx); err != nil && err != context.Canceled {
		return nil, err
	}
	m1, err := s.d.metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := &streamOut{win: win, daemon: deltaOf(m0, m1)}
	out.rates = rate.finish(float64(progress.Load()) / win.seconds)
	var retries uint64
	for _, lp := range loops {
		out.accesses += lp.accesses
		out.batches += lp.batches
		out.syncs = append(out.syncs, lp.syncs...)
		out.sessions += len(lp.finals)
		retries += lp.retries
		for _, f := range lp.finals {
			got, err := json.Marshal(f.res)
			if b.op(err, "stream-steady: encoding a final result") {
				b.check(string(got) == string(s.refs[f.kernel]), "stream-steady: final result for %s differs from the local profile", kernels[f.kernel])
			}
			if n, ok := s.sent[f.kernel]; ok {
				b.check(n == f.sent, "stream-steady: a %s session wrote %d bytes, an earlier one %d", kernels[f.kernel], f.sent, n)
			} else {
				s.sent[f.kernel] = f.sent
			}
		}
	}
	// Each kernel's session writes the same bytes every time, so once
	// every kernel has streamed the mean repeats exactly.
	for k, n := range s.sent {
		out.wireBytesPerAccess += float64(n) / float64(len(s.traces[k])) / float64(len(s.sent))
	}
	out.kernelsSent = len(s.sent)
	b.retried(retries+out.daemon.retries, "stream-steady")
	return out, nil
}

// session streams one kernel's trace through a resilient session,
// timing every sync.
func (s *streamSteady) session(ctx context.Context, b *bench, k int, id uint64, lp *streamLoop, syncs *atomic.Int64, progress *atomic.Uint64) error {
	sp := b.rec.start("stream.session", 0, id, 0)
	defer b.rec.finish(sp)
	var sent uint64
	rc := wire.NewReconnectingClient(s.d.addr, s.cfg, wire.RetryPolicy{
		SyncEvery: -1,
		Seed:      id,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return tapConn{Conn: c, sent: &sent}, nil
		},
	})
	defer rc.Close()
	tr := s.traces[k]
	var seq uint64
	for off := 0; off < len(tr); off += streamBatch {
		batch := tr[off:min(off+streamBatch, len(tr))]
		seq++
		bs := b.rec.start("wire.send_batch", sp.ID, id, seq)
		err := rc.SendBatch(ctx, batch)
		b.rec.finish(bs)
		if !b.op(err, "stream-steady: SendBatch") {
			return err
		}
		lp.accesses += uint64(len(batch))
		lp.batches++
		progress.Add(uint64(len(batch)))
		if seq%syncEvery != 0 {
			continue
		}
		ss := b.rec.start("wire.sync", sp.ID, id, seq)
		start := time.Now()
		acked, err := rc.Sync(ctx)
		end := time.Now()
		b.rec.finish(ss)
		if !b.op(err, "stream-steady: Sync") {
			return err
		}
		b.check(acked == seq, "stream-steady: sync acknowledged batch %d, want %d", acked, seq)
		lp.syncs = append(lp.syncs, sample{end, ms(end.Sub(start))})
		syncs.Add(1)
	}
	fs := b.rec.start("wire.finish", sp.ID, id, 0)
	res, err := rc.Finish(ctx)
	b.rec.finish(fs)
	if !b.op(err, "stream-steady: Finish") {
		return err
	}
	st := rc.Stats()
	lp.retries += st.Reconnects + st.ReplayedBatches
	lp.finals = append(lp.finals, streamFinal{kernel: k, res: res, sent: sent})
	return nil
}

// metrics adds the sync latency and wire-size metrics.
func (o *streamOut) metrics(b *bench, m map[string]float64) {
	l := summarize(o.syncs)
	b.check(l.beyond >= minBeyond, "stream-steady: only %d syncs beyond p90", l.beyond)
	fmt.Fprintf(b.out, "# sync latency: %d samples in %d chunks\n", l.n, l.chunks)
	m["sync_p50_ms"] = l.p50
	m["sync_p90_ms"] = l.p90
	b.check(o.kernelsSent == len(kernels), "stream-steady: only %d of %d kernels streamed", o.kernelsSent, len(kernels))
	m["wire_bytes_per_access"] = o.wireBytesPerAccess
}

// metrics adds the modelled overhead metrics: means over the kernels.
func (s *streamSteady) metrics(m map[string]float64) {
	m["model_time_ovh_pct"] = mean(s.timeOvh)
	m["model_mem_ovh_pct"] = mean(s.memOvh)
}
