package rdx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/wire"
)

// Backend identifies one rdxd daemon: profiling address plus optional
// admin (health/metrics) address.
type Backend = pool.Backend

// ParseBackends parses a comma-separated backend list, each element
// "addr" or "addr=adminaddr" — the format cmd/rdx's -remote flag and
// WithRemote accept.
func ParseBackends(spec string) ([]Backend, error) { return pool.ParseBackends(spec) }

// Session is the configured entry point of the API: construct one with
// New and the With* options, then Profile or ProfileThreads under a
// context. The zero configuration profiles locally under DefaultConfig
// and DefaultCosts; options layer remote execution and multi-backend
// sharding on top without changing the results — every execution
// strategy returns bit-identical profiles for the same stream and
// config. Every remote run is fault tolerant (see WithRetry).
//
//	res, err := rdx.New().Profile(ctx, stream)                    // local
//	res, err := rdx.New(rdx.WithRemote("host:9090")).Profile(ctx, stream)
//	m, err := rdx.New(
//	    rdx.WithRemote("a:9090", "b:9090", "c:9090"),
//	).ProfileThreads(ctx, streams)                                // sharded pool
//
// A Session is immutable after New and safe for concurrent use; each
// Profile/ProfileThreads call is an independent run.
type Session struct {
	cfg        Config
	costs      Costs
	remotes    []Backend
	retry      RetryPolicy
	remoteOpts RemoteOptions
	workers    int
	window     *WindowOptions
	err        error
}

// Option configures a Session at New time.
type Option func(*Session)

// New builds a Session from options. Without options it profiles
// locally, in process, under DefaultConfig and DefaultCosts.
func New(opts ...Option) *Session {
	s := &Session{cfg: DefaultConfig(), costs: DefaultCosts()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithConfig sets the profiler configuration (sampling period,
// watchpoints, replacement policy, ...).
func WithConfig(cfg Config) Option { return func(s *Session) { s.cfg = cfg } }

// WithCosts sets the cycle-cost table used for modelled overhead
// accounting (local profiling only; remote daemons apply their own).
func WithCosts(costs Costs) Option { return func(s *Session) { s.costs = costs } }

// WithRemote directs profiling to rdxd daemons instead of running in
// process. Each addr is "host:port" or "host:port=adminhost:port" (the
// admin listener enables health probes and load-aware routing). One
// address profiles against that daemon; several shard ProfileThreads
// streams across the fleet with health-checked failover.
func WithRemote(addrs ...string) Option {
	return func(s *Session) {
		for _, a := range addrs {
			bs, err := pool.ParseBackends(a)
			if err != nil {
				s.err = err
				return
			}
			s.remotes = append(s.remotes, bs...)
		}
	}
}

// WithRetry tunes how remote sessions ride out faults: reconnection
// with backoff, checkpoint/resume, idempotent batch replay, and
// following a draining daemon's migration redirect. Every remote
// session has this fault tolerance; without WithRetry it runs under the
// zero RetryPolicy, whose fields all select the defaults.
func WithRetry(policy RetryPolicy) Option {
	return func(s *Session) { s.retry = policy }
}

// WithRemoteOptions tunes remote streaming (batch size).
func WithRemoteOptions(opts RemoteOptions) Option {
	return func(s *Session) { s.remoteOpts = opts }
}

// WithWorkers bounds how many streams a local ProfileThreads simulates
// concurrently (n <= 0 selects GOMAXPROCS). Results are independent of
// the worker count.
func WithWorkers(n int) Option { return func(s *Session) { s.workers = n } }

// newPool builds the dispatcher a multi-backend run uses, under the
// session's retry policy and batch size.
func (s *Session) newPool() (*pool.Pool, error) {
	return pool.New(s.remotes, pool.Options{Retry: s.retry, BatchSize: s.remoteOpts.BatchSize})
}

// Profile measures the reuse-distance profile of one access stream
// under the session's configuration — locally, on a remote daemon, or
// through the backend pool, all bit-identical for the same stream and
// config. The context cancels the run at batch granularity.
func (s *Session) Profile(ctx context.Context, r Reader) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	switch {
	case len(s.remotes) == 0:
		p, err := core.NewProfiler(s.cfg)
		if err != nil {
			return nil, err
		}
		res, err := p.RunContext(ctx, r, s.costs)
		if err != nil {
			return nil, fmt.Errorf("rdx: profiling: %w", err)
		}
		return res, nil
	case len(s.remotes) == 1:
		// Checked here, not by the daemon: the client retries a
		// rejected open like any other fault.
		if err := s.cfg.Validate(); err != nil {
			return nil, err
		}
		c := wire.NewReconnectingClient(s.remotes[0].Addr, s.cfg, s.retry)
		defer c.Close()
		wres, err := c.Profile(ctx, r, s.remoteOpts, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("rdx: remote profiling: %w", err)
		}
		return wire.ToCore(wres), nil
	default:
		p, err := s.newPool()
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return p.Profile(ctx, r, s.cfg)
	}
}

// ProfileThreads profiles each stream as one thread of a multithreaded
// program — per-thread PMU and debug-register contexts, merged
// program-level histograms and attribution. Locally the streams run on
// a bounded worker pool (WithWorkers); with remotes they shard across
// the backend fleet with least-loaded routing and failover. Either way
// the MultiResult is bit-identical for the same streams and config.
func (s *Session) ProfileThreads(ctx context.Context, streams []Reader) (*MultiResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.remotes) == 0 {
		return core.ProfileThreads(ctx, streams, s.cfg, s.costs, s.workers)
	}
	p, err := s.newPool()
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.ProfileThreads(ctx, streams, s.cfg)
}
