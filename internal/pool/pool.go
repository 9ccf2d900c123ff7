// Package pool implements client-side sharded profiling across a fleet
// of rdxd backends: the ProfileThreads workload — N access streams —
// fanned out over M daemons, with health-checked failover and an exact
// merge.
//
// # Why sharding composes exactly
//
// Locality histograms compose exactly across disjoint access streams
// (the measurement theory of locality): profiling stream i on backend A
// or backend B yields the same per-stream result, because the profiler
// is deterministic in (stream, config) and the per-stream config
// derives from the stream index alone (core.ThreadConfig). The pool
// therefore merges the shipped results with the very core.Merger that
// local ProfileThreads uses, and the MultiResult is bit-identical to a
// local run for any pool size, assignment, and fault schedule.
//
// # Dispatch
//
// Streams are assigned to backends by consistent least-loaded routing:
// among healthy backends with a free in-flight slot, the one with the
// fewest sessions dispatched by this pool wins; ties go to the lower
// server-reported /metrics load gauge, then to the lower backend index,
// so equal observations always produce the same choice. In-flight
// sessions per backend are bounded by Options.MaxInFlight; when every
// healthy backend is saturated the dispatching stream waits for a slot
// (or for a backend to recover).
//
// # Health and failover
//
// A prober goroutine checks each backend every Options.HealthEvery —
// GET /healthz on the backend's admin address when configured, a TCP
// dial of the profiling address otherwise — and refreshes the
// server-reported load gauge from /metrics. A backend whose session
// fails is marked down immediately (the prober brings it back when it
// recovers). Within one backend, transient faults are absorbed by
// wire.ReconnectingClient: reconnect with backoff, checkpoint/resume,
// idempotent replay. Only when that gives up — the backend died — does
// the pool fail over: the stream is re-dispatched from the start on
// another healthy backend, replaying the prefix it has recorded, and
// the freshly profiled result is bit-identical because profiling is
// deterministic. Re-dispatches per stream are bounded by
// Options.MaxRedispatch.
package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Backend identifies one rdxd daemon: the wire-protocol profiling
// address, plus the optional admin (HTTP) address health probes and
// load refreshes use.
type Backend struct {
	// Addr is the profiling listener ("host:port").
	Addr string
	// Admin is the admin listener serving /healthz and /metrics; empty
	// means probe by TCP dial of Addr and route on local load only.
	Admin string
}

// ParseBackends parses a comma-separated backend list, each element
// "addr" or "addr=adminaddr" — the format cmd/rdx's -remote flag
// accepts.
func ParseBackends(spec string) ([]Backend, error) {
	var bs []Backend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		addr, admin, _ := strings.Cut(part, "=")
		if addr == "" {
			return nil, fmt.Errorf("pool: empty backend address in %q", spec)
		}
		bs = append(bs, Backend{Addr: addr, Admin: admin})
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("pool: no backends in %q", spec)
	}
	return bs, nil
}

// Options tunes a Pool. The zero value means "use the defaults" for
// every field.
type Options struct {
	// MaxInFlight bounds concurrent sessions per backend (default 8).
	MaxInFlight int
	// HealthEvery is the probe cadence (default 500ms).
	HealthEvery time.Duration
	// ProbeTimeout bounds one health probe or load refresh (default 2s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive failed probes before a healthy
	// backend is marked down (default 2). Session errors still mark a
	// backend down immediately — a failed session is stronger evidence
	// than a missed probe.
	DownAfter int
	// UpAfter is the consecutive successful probes before a down
	// backend is readmitted (default 2). The hysteresis pair keeps a
	// flapping backend — one that answers every other probe — from
	// oscillating in and out of the dispatch set.
	UpAfter int
	// WaitHealthy bounds how long a dispatch waits for any backend to
	// become healthy with a free slot before giving up (default 15s).
	WaitHealthy time.Duration
	// MaxRedispatch bounds full re-dispatches per stream after a
	// backend dies mid-session (default 2×backends).
	MaxRedispatch int
	// BatchSize is the accesses per wire frame (default
	// trace.DefaultBatchSize).
	BatchSize int
	// Retry is the per-session fault policy handed to
	// wire.ReconnectingClient (zero value = wire defaults). It governs
	// recovery *within* a backend; the pool governs failover *across*
	// backends.
	Retry wire.RetryPolicy
	// Dial overrides the transport to every backend (fault-injection
	// tests plug a faultnet dialer in here).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Logf receives dispatch diagnostics (default: silent).
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 2
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 2
	}
	if o.WaitHealthy <= 0 {
		o.WaitHealthy = 15 * time.Second
	}
	if o.BatchSize <= 0 {
		o.BatchSize = trace.DefaultBatchSize
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Stats counts a pool's dispatch and failover events.
type Stats struct {
	// Dispatched is the number of sessions started (streams plus
	// re-dispatches).
	Dispatched uint64
	// Redispatched counts failovers: streams re-run on another backend
	// after one died.
	Redispatched uint64
	// ProbeFailures counts health probes that found a backend down.
	ProbeFailures uint64
	// PerBackend is the number of sessions each backend completed or
	// failed, by backend index.
	PerBackend []uint64
}

// backendState is one backend plus the pool's view of it.
type backendState struct {
	Backend
	idx      int
	healthy  atomic.Bool
	reported atomic.Int64 // last /metrics load gauge (0 without admin)
	sessions atomic.Uint64
	inflight int // guarded by Pool.mu

	// Probe hysteresis: consecutive same-direction observations needed
	// before the healthy bit flips (prober goroutine plus markDown).
	okStreak   atomic.Int32
	failStreak atomic.Int32
}

// Pool is a sharded-profiling dispatcher over a set of rdxd backends.
// It is safe for concurrent use; Close releases the prober.
type Pool struct {
	opts     Options
	backends []*backendState // fixed at New
	httpc    *http.Client

	// mu guards every backend's inflight count and closed; cond wakes
	// dispatches waiting for a slot.
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	stopProbe chan struct{}
	probeDone chan struct{}

	dispatched   atomic.Uint64
	redispatched atomic.Uint64
	probeFails   atomic.Uint64
}

// New builds a pool over the given backends and starts its health
// prober. Backends start out presumed healthy; the first probe round or
// session failure corrects the presumption.
func New(backends []Backend, opts Options) (*Pool, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("pool: no backends")
	}
	opts.fill()
	p := &Pool{
		opts:      opts,
		httpc:     &http.Client{Timeout: opts.ProbeTimeout},
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i, b := range backends {
		bs := &backendState{Backend: b, idx: i}
		bs.healthy.Store(true)
		p.backends = append(p.backends, bs)
	}
	go p.probeLoop()
	return p, nil
}

// Close stops the prober and wakes every waiting dispatch with an
// error. In-flight sessions are not interrupted.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stopProbe)
	<-p.probeDone
	p.cond.Broadcast()
}

// Stats returns the dispatch counters accumulated so far.
func (p *Pool) Stats() Stats {
	s := Stats{
		Dispatched:    p.dispatched.Load(),
		Redispatched:  p.redispatched.Load(),
		ProbeFailures: p.probeFails.Load(),
	}
	for _, b := range p.backends {
		s.PerBackend = append(s.PerBackend, b.sessions.Load())
	}
	return s
}

// Healthy reports how many backends the pool currently considers
// dispatchable.
func (p *Pool) Healthy() int {
	n := 0
	for _, b := range p.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// probeLoop refreshes backend health and load every HealthEvery, and
// broadcasts each round so waiting dispatches re-check state (and their
// contexts) at least that often. Health transitions are hysteretic:
// DownAfter consecutive failures take a backend out, UpAfter
// consecutive successes readmit it, so a flapping backend — answering
// every other probe — settles out of the dispatch set instead of
// oscillating through it.
func (p *Pool) probeLoop() {
	defer close(p.probeDone)
	t := time.NewTicker(p.opts.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stopProbe:
			return
		case <-t.C:
		}
		for _, b := range p.backends {
			if p.probe(b) {
				b.failStreak.Store(0)
				if !b.healthy.Load() && int(b.okStreak.Add(1)) >= p.opts.UpAfter {
					b.okStreak.Store(0)
					b.healthy.Store(true)
					p.opts.Logf("pool: backend %d (%s) recovered", b.idx, b.Addr)
				}
			} else {
				p.probeFails.Add(1)
				b.okStreak.Store(0)
				if b.healthy.Load() && int(b.failStreak.Add(1)) >= p.opts.DownAfter {
					b.failStreak.Store(0)
					b.healthy.Store(false)
					p.opts.Logf("pool: backend %d (%s) down", b.idx, b.Addr)
				}
			}
		}
		p.cond.Broadcast()
	}
}

// probe checks one backend: GET /healthz on the admin address when
// configured (a 200 is healthy; a daemon in drain mode answers 503 and
// stops receiving new streams), else a TCP dial of the profiling address. A
// healthy admin probe also refreshes the server-reported load gauge.
func (p *Pool) probe(b *backendState) bool {
	if b.Admin == "" {
		conn, err := net.DialTimeout("tcp", b.Addr, p.opts.ProbeTimeout)
		if err != nil {
			return false
		}
		conn.Close()
		return true
	}
	resp, err := p.httpc.Get("http://" + b.Admin + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if load, err := p.fetchLoad(b); err == nil {
		b.reported.Store(load)
	}
	return true
}

// fetchLoad reads the backend's /metrics load gauge.
func (p *Pool) fetchLoad(b *backendState) (int64, error) {
	resp, err := p.httpc.Get("http://" + b.Admin + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Load int64 `json:"load"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, err
	}
	return m.Load, nil
}

// markDown records a backend failure observed by a session; the prober
// re-admits the backend once it answers probes again.
func (p *Pool) markDown(b *backendState, err error) {
	b.okStreak.Store(0) // recovery starts from scratch
	if b.healthy.Swap(false) {
		p.opts.Logf("pool: backend %d (%s) marked down: %v", b.idx, b.Addr, err)
	}
	p.cond.Broadcast()
}

// errNoBackend reports that no backend became dispatchable within
// WaitHealthy.
var errNoBackend = errors.New("pool: no healthy backend with a free slot")

// acquire blocks until a healthy backend with a free in-flight slot is
// available and claims the least-loaded one: fewest pool-local in-flight
// sessions, then lowest server-reported load, then lowest index — a
// consistent total order, so identical observations assign identically.
func (p *Pool) acquire(ctx context.Context) (*backendState, error) {
	deadline := time.Now().Add(p.opts.WaitHealthy)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.closed {
			return nil, fmt.Errorf("pool: closed")
		}
		var best *backendState
		for _, b := range p.backends {
			if !b.healthy.Load() || b.inflight >= p.opts.MaxInFlight {
				continue
			}
			if best == nil || lessLoaded(b, best) {
				best = b
			}
		}
		if best != nil {
			best.inflight++
			return best, nil
		}
		if time.Now().After(deadline) {
			return nil, errNoBackend
		}
		// Woken by release, markDown, Close, or the prober's periodic
		// broadcast — the latter bounds how stale a ctx/deadline check
		// can get.
		p.cond.Wait()
	}
}

func lessLoaded(a, b *backendState) bool {
	if a.inflight != b.inflight {
		return a.inflight < b.inflight
	}
	if ra, rb := a.reported.Load(), b.reported.Load(); ra != rb {
		return ra < rb
	}
	return a.idx < b.idx
}

// release returns a backend's in-flight slot.
func (p *Pool) release(b *backendState) {
	p.mu.Lock()
	b.inflight--
	p.mu.Unlock()
	p.cond.Broadcast()
}

// PickBackend claims a healthy, least-loaded backend for caller-driven
// work — a continuous-profiling watch session, say, that manages its
// own connection instead of going through ProfileThreads. It blocks
// like any dispatch until a backend with a free in-flight slot exists.
// The returned release function frees the slot; calling it more than
// once is safe.
func (p *Pool) PickBackend(ctx context.Context) (Backend, func(), error) {
	b, err := p.acquire(ctx)
	if err != nil {
		return Backend{}, nil, err
	}
	var once sync.Once
	return b.Backend, func() { once.Do(func() { p.release(b) }) }, nil
}

// permanentError marks a failure re-dispatching cannot cure (the
// stream's own reader failed, or it holds an access no batch can
// carry); the dispatch loop stops retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// ProfileThreads profiles each stream as one thread of a multithreaded
// program, sharded across the pool's backends, and merges the shipped
// results exactly as local core.ProfileThreads does. The MultiResult is
// bit-identical to the local run for any pool size and fault schedule.
// Per-backend concurrency is bounded by MaxInFlight; streams beyond the
// pool's aggregate capacity wait for slots.
func (p *Pool) ProfileThreads(ctx context.Context, streams []trace.Reader, cfg core.Config) (*core.MultiResult, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("pool: ProfileThreads with no streams")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	results := make([]*wire.Result, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.profileStream(ctx, i, streams[i], core.ThreadConfig(cfg, i))
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pool: stream %d: %w", i, err)
		}
	}
	g := core.NewMerger()
	for _, w := range results {
		g.Add(wire.ToCore(w))
	}
	return g.Result(), nil
}

// Profile profiles a single stream through the pool (stream index 0, so
// the config is used as-is) — a local Session.Profile with pool
// placement and failover.
func (p *Pool) Profile(ctx context.Context, r trace.Reader, cfg core.Config) (*core.Result, error) {
	m, err := p.ProfileThreads(ctx, []trace.Reader{r}, cfg)
	if err != nil {
		return nil, err
	}
	return m.Threads[0], nil
}

// profileStream runs one stream to completion, failing over across
// backends until it succeeds or the re-dispatch budget is exhausted.
func (p *Pool) profileStream(ctx context.Context, idx int, r trace.Reader, tcfg core.Config) (*wire.Result, error) {
	maxRedispatch := p.opts.MaxRedispatch
	if maxRedispatch <= 0 {
		maxRedispatch = 2 * len(p.backends)
	}
	// rec records every access already handed to a backend, so a stream
	// whose backend dies mid-session can be replayed from the start on
	// another one. It is released when the stream completes.
	var rec []mem.Access
	var lastErr error
	for dispatch := 0; ; dispatch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dispatch > maxRedispatch {
			return nil, fmt.Errorf("pool: giving up after %d dispatches: %w", dispatch, lastErr)
		}
		b, err := p.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last session error: %v)", err, lastErr)
			}
			return nil, err
		}
		p.dispatched.Add(1)
		if dispatch > 0 {
			p.redispatched.Add(1)
			p.opts.Logf("pool: stream %d re-dispatched to backend %d (%s)", idx, b.idx, b.Addr)
		}
		res, err := p.runOn(ctx, b, r, tcfg, &rec)
		b.sessions.Add(1)
		p.release(b)
		if err == nil {
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		lastErr = err
		p.markDown(b, err)
	}
}

// runOn streams one session against a single backend through a
// resilient client: the recorded prefix first (a re-dispatch), then the
// reader's remainder, recording as it goes.
func (p *Pool) runOn(ctx context.Context, b *backendState, r trace.Reader, tcfg core.Config, rec *[]mem.Access) (*wire.Result, error) {
	policy := p.opts.Retry
	if p.opts.Dial != nil {
		policy.Dial = p.opts.Dial
	}
	c := wire.NewReconnectingClient(b.Addr, tcfg, policy)
	defer c.Close()

	rr := &recordingReader{r: r, rec: rec}
	res, err := c.Profile(ctx, trace.Concat(trace.FromSlice(*rec), rr), wire.ProfileOptions{BatchSize: p.opts.BatchSize}, 0, nil)
	if rr.err != nil {
		// The stream itself failed; no backend can fix that.
		return nil, &permanentError{fmt.Errorf("reading access stream: %w", rr.err)}
	}
	if errors.Is(err, trace.ErrUnfitAccess) {
		return nil, &permanentError{err} // the stream holds an access no batch can carry
	}
	if err != nil {
		return nil, err
	}
	*rec = nil // completed: the replay record is no longer needed
	return res, nil
}

// recordingReader appends every access it reads from r to rec, so a
// re-dispatch can replay the prefix, and keeps r's read error, which
// marks the stream as failed for good.
type recordingReader struct {
	r   trace.Reader
	rec *[]mem.Access
	err error
}

func (rr *recordingReader) Read(dst []mem.Access) (int, error) {
	n, err := rr.r.Read(dst)
	*rr.rec = append(*rr.rec, dst[:n]...)
	if err != nil && err != io.EOF {
		rr.err = err
	}
	return n, err
}
