package rdx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/wire"
)

// Continuous-profiling vocabulary, re-exported from internal/window so
// subscribers configure and read drift scoring without importing
// internal packages.
type (
	// Window is one closed observation interval: the locality activity
	// between two consecutive cumulative snapshots, with its working
	// set and drift score.
	Window = window.Window
	// DriftOptions tunes the phase/drift detector (minimum evidence,
	// histogram-distance and working-set-shift thresholds).
	DriftOptions = window.DriftOptions
	// DriftScore is one window's drift verdict against its predecessor.
	DriftScore = window.Score
)

// DefaultWindowAccesses is the window length a watched session uses
// when WindowOptions does not say otherwise.
const DefaultWindowAccesses = 1 << 17

// WindowOptions shapes continuous observation of a profiling run: how
// long a window is, how many are retained, and when consecutive
// windows count as drift. The zero value selects all defaults.
type WindowOptions struct {
	// EveryAccesses is the window length in accesses per thread
	// (default DefaultWindowAccesses). Remote sessions observe at wire
	// batch boundaries, so the effective cadence is EveryAccesses
	// rounded down to a whole number of batches (minimum one).
	EveryAccesses uint64
	// Ring bounds how many recent windows the run's collector retains
	// (0 selects the internal default of 16).
	Ring int
	// Drift tunes the drift detector scoring consecutive windows.
	Drift DriftOptions
	// Buffer is the subscription channel's capacity (default 16). A
	// subscriber that stops draining eventually blocks the run — the
	// same backpressure contract as every other streaming path.
	Buffer int
}

func (o *WindowOptions) fill() {
	if o.EveryAccesses == 0 {
		o.EveryAccesses = DefaultWindowAccesses
	}
	if o.Buffer <= 0 {
		o.Buffer = 16
	}
}

// WithWindow sets the session's default windowing for Session.Watch
// (a per-call WatchOptions.Window overrides it).
func WithWindow(opts WindowOptions) Option {
	return func(s *Session) { s.window = &opts }
}

// WindowSnapshot is one delivered observation of a watched run: the
// merged cumulative profile at a window boundary plus the window it
// closed. The final snapshot of a run has Final set, carries the
// lifetime result in Cumulative — bit-identical to what ProfileThreads
// returns for the same streams and config — and reports the run's
// error, if any, in Err; the channel closes after it.
type WindowSnapshot struct {
	// Seq numbers window boundaries from 1 in delivery order. The
	// final snapshot repeats the last boundary's Seq.
	Seq int
	// Cumulative is the merged program-level profile of everything
	// executed up to this boundary (the lifetime result on the final
	// snapshot).
	Cumulative *MultiResult
	// Window is the interval this boundary closed (nil on the final
	// snapshot — the lifetime aggregate is not a window).
	Window *Window
	// Final marks the run's last snapshot.
	Final bool
	// Err is the run's error, set only on the final snapshot.
	Err error
}

// WatchOptions parameterizes one Session.Watch run.
type WatchOptions struct {
	// Streams are the access streams to profile, one per thread —
	// exactly ProfileThreads' input.
	Streams []Reader
	// Window overrides the session-level WithWindow configuration for
	// this run (nil keeps it).
	Window *WindowOptions
}

// Watch profiles the streams like ProfileThreads while streaming
// window snapshots to the returned channel: one WindowSnapshot per
// window boundary, in order, then a Final snapshot carrying the
// lifetime result, then close. This is the one way to observe a run:
// a remote thread polls its daemon at each boundary, retried across
// reconnects, so no boundary is lost, repeated or reordered.
//
// The lifetime aggregate never flows through the windowing code — it
// is the same exact-sum merge of per-thread finals ProfileThreads
// performs, so it stays bit-identical to an unwatched run.
//
// Cancelling ctx aborts the run; the final snapshot then reports
// ctx's error. The caller should drain the channel until it closes.
func (s *Session) Watch(ctx context.Context, opts WatchOptions) (<-chan WindowSnapshot, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(opts.Streams) == 0 {
		return nil, fmt.Errorf("rdx: Watch with no streams")
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	wo := WindowOptions{}
	switch {
	case opts.Window != nil:
		wo = *opts.Window
	case s.window != nil:
		wo = *s.window
	}
	wo.fill()

	// Multi-backend runs claim one backend per thread from the shared
	// dispatcher, like ProfileThreads does.
	var pl *pool.Pool
	if len(s.remotes) > 1 {
		var err error
		if pl, err = s.newPool(); err != nil {
			return nil, err
		}
	}

	out := make(chan WindowSnapshot, wo.Buffer)
	go s.watchRun(ctx, opts.Streams, wo, pl, out)
	return out, nil
}

// threadEvent is one message from a watch thread driver: a boundary
// snapshot, or the terminal final result / error.
type threadEvent struct {
	cum   *core.Result // one window boundary's cumulative snapshot
	final *core.Result // terminal: the thread's lifetime result
	err   error        // terminal: the thread failed
}

// watchRun coordinates the per-thread drivers: each boundary round it
// collects one fresh cumulative snapshot from every still-running
// thread (finished threads stand in with their final result — their
// stream simply stopped contributing), merges them with a fresh
// exact-sum Merger, windows the merged aggregate, and delivers the
// snapshot. When every thread has finished it merges the finals —
// exactly as ProfileThreads would — and delivers the Final snapshot.
func (s *Session) watchRun(ctx context.Context, streams []Reader, wo WindowOptions, pl *pool.Pool, out chan<- WindowSnapshot) {
	defer close(out)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // unblocks any driver still trying to deliver
	if pl != nil {
		defer pl.Close()
	}

	chans := make([]chan threadEvent, len(streams))
	for i := range streams {
		chans[i] = make(chan threadEvent)
		go s.watchThread(ctx, i, streams[i], wo, pl, chans[i])
	}

	col := window.NewCollector(s.cfg.Granularity.BlockSize(), wo.Ring, wo.Drift)
	cums := make([]*core.Result, len(streams))
	finals := make([]*core.Result, len(streams))
	live := len(streams)
	var runErr error
	seq := 0
rounds:
	for live > 0 {
		progressed := false
		for i := range streams {
			if finals[i] != nil {
				continue
			}
			ev := <-chans[i]
			switch {
			case ev.err != nil:
				runErr = fmt.Errorf("rdx: watch thread %d: %w", i, ev.err)
				break rounds
			case ev.final != nil:
				finals[i] = ev.final
				cums[i] = ev.final
				live--
			default:
				cums[i] = ev.cum
				progressed = true
			}
		}
		if !progressed {
			break
		}
		seq++
		m := core.MergeResults(cums)
		w := col.Observe(m.Accesses, m.Samples, m.ReuseDistance, m.ReuseTime)
		select {
		case out <- WindowSnapshot{Seq: seq, Cumulative: m, Window: w}:
		case <-ctx.Done():
			runErr = ctx.Err()
			break rounds
		}
	}
	if runErr == nil {
		runErr = ctx.Err()
	}

	final := WindowSnapshot{Seq: seq, Final: true, Err: runErr}
	if runErr == nil {
		// The lifetime aggregate: the same merge of per-thread finals
		// ProfileThreads performs, untouched by any windowing.
		final.Cumulative = core.MergeResults(finals)
	}
	select {
	case out <- final:
	case <-ctx.Done():
	}
}

// watchThread drives one stream to completion, delivering a cumulative
// snapshot at every window boundary and a terminal final/error event.
func (s *Session) watchThread(ctx context.Context, i int, r Reader, wo WindowOptions, pl *pool.Pool, out chan<- threadEvent) {
	send := func(ev threadEvent) bool {
		select {
		case out <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	tcfg := core.ThreadConfig(s.cfg, i)

	if len(s.remotes) == 0 {
		p, err := core.NewProfiler(tcfg)
		if err != nil {
			send(threadEvent{err: err})
			return
		}
		res, err := p.RunWindowedContext(ctx, r, s.costs, wo.EveryAccesses, func(snap *core.Result) {
			send(threadEvent{cum: snap})
		})
		if err != nil {
			send(threadEvent{err: err})
			return
		}
		send(threadEvent{final: res})
		return
	}

	res, err := s.watchThreadRemote(ctx, r, tcfg, wo, pl, send)
	if err != nil {
		send(threadEvent{err: err})
		return
	}
	send(threadEvent{final: res})
}

// watchThreadRemote drives one stream against an rdxd backend through
// the resilient client's watched loop: it sends the batches of one
// window, then takes the boundary's snapshot before sending more. That
// pacing is what makes every boundary recoverable across a reconnect
// or a migration (see wire.ReconnectingClient.Snapshot).
func (s *Session) watchThreadRemote(ctx context.Context, r Reader, tcfg core.Config, wo WindowOptions, pl *pool.Pool, send func(threadEvent) bool) (*core.Result, error) {
	addr := s.remotes[0].Addr
	if pl != nil {
		b, release, err := pl.PickBackend(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		addr = b.Addr
	}

	batch := s.remoteOpts.BatchSize
	if batch <= 0 {
		batch = trace.DefaultBatchSize
	}
	everyBatches := max(1, int(wo.EveryAccesses/uint64(batch)))

	rc := wire.NewReconnectingClient(addr, tcfg, s.retry)
	defer rc.Close()
	res, err := rc.Profile(ctx, r, s.remoteOpts, everyBatches, func(snap *wire.Result) error {
		if !send(threadEvent{cum: wire.ToCore(snap)}) {
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return wire.ToCore(res), nil
}
