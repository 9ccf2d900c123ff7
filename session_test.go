package rdx

// Differential tests for the options-based Session API: every
// execution strategy a Session selects — the core profiler it wraps,
// any worker count, plain and resilient remote daemons — must produce
// bit-identical results across all watchpoint replacement policies.

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

var allPolicies = []ReplacementPolicy{
	ReplaceProbabilistic, ReplaceReservoir, ReplaceAlways, ReplaceNever, ReplaceHybrid,
}

// fingerprint reduces a Result to the byte-exact wire JSON (the form
// every bit-identity test in the repo compares).
func fingerprint(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(ResultToRemote(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func policyConfig(pol ReplacementPolicy) Config {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 400
	cfg.Replacement = pol
	return cfg
}

func TestSessionDifferentialLocal(t *testing.T) {
	ctx := context.Background()
	for _, pol := range allPolicies {
		cfg := policyConfig(pol)
		accs, err := trace.Collect(ZipfAccess(11, 0, 4096, 1.0, 120000))
		if err != nil {
			t.Fatal(err)
		}

		costs := DefaultCosts()
		costs.TrapCycles *= 2
		p, err := core.NewProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		coreRes, err := p.RunContext(ctx, FromSlice(accs), costs)
		if err != nil {
			t.Fatal(err)
		}
		newRes, err := New(WithConfig(cfg), WithCosts(costs)).Profile(ctx, FromSlice(accs))
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, coreRes) != fingerprint(t, newRes) {
			t.Errorf("%v: Session diverges from the core profiler", pol)
		}
	}
}

func TestSessionDifferentialThreads(t *testing.T) {
	ctx := context.Background()
	mkStreams := func() []Reader {
		var rs []Reader
		for i := 0; i < 4; i++ {
			rs = append(rs, ZipfAccess(uint64(70+i), Addr(uint64(i)<<40), 2048, 1.0, 50000))
		}
		return rs
	}
	multiFP := func(m *MultiResult) string {
		var parts []string
		for _, r := range m.Threads {
			parts = append(parts, fingerprint(t, r))
		}
		at, err := json.Marshal(m.Attribution)
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := json.Marshal(m.ReuseDistance.Snapshot())
		parts = append(parts, string(at), string(rd))
		b, _ := json.Marshal(parts)
		return string(b)
	}
	for _, pol := range allPolicies {
		cfg := policyConfig(pol)
		defM, err := New(WithConfig(cfg)).ProfileThreads(ctx, mkStreams())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			m, err := New(WithConfig(cfg), WithWorkers(w)).ProfileThreads(ctx, mkStreams())
			if err != nil {
				t.Fatal(err)
			}
			if multiFP(m) != multiFP(defM) {
				t.Errorf("%v: ProfileThreads with %d workers diverges from the default", pol, w)
			}
		}
	}
}

func TestSessionDifferentialRemote(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(13, 0, 4096, 1.0, 100000))
	if err != nil {
		t.Fatal(err)
	}
	local, err := New(WithConfig(cfg)).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	localFP := fingerprint(t, local)

	// Plain remote vs local.
	newRes, err := New(WithConfig(cfg), WithRemote(srv.Addr())).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	// StateBytes reports capacity growth, which legitimately differs
	// between the server's batch sizes and the local profiler's; zero it
	// for the remote-vs-local check.
	neutral := func(fp string) string {
		var w RemoteResult
		if err := json.Unmarshal([]byte(fp), &w); err != nil {
			t.Fatal(err)
		}
		w.StateBytes = 0
		b, _ := json.Marshal(&w)
		return string(b)
	}
	if neutral(fingerprint(t, newRes)) != neutral(localFP) {
		t.Error("remote Session result diverges from local")
	}

	// Resilient remote vs plain remote, byte for byte.
	plainFP := fingerprint(t, newRes)
	policy := RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, OpTimeout: 10 * time.Second}
	newRes, err = New(WithConfig(cfg), WithRemote(srv.Addr()), WithRetry(policy)).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, newRes) != plainFP {
		t.Error("resilient remote Session diverges from plain remote")
	}
}

func TestSessionBadRemoteSpec(t *testing.T) {
	s := New(WithRemote("=admin"))
	if _, err := s.Profile(context.Background(), Cyclic(0, 16, 100)); err == nil {
		t.Error("bad backend spec should surface at Profile time")
	}
	if _, err := s.ProfileThreads(context.Background(), []Reader{Cyclic(0, 16, 100)}); err == nil {
		t.Error("bad backend spec should surface at ProfileThreads time")
	}
}

func TestSessionLocalContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New().Profile(ctx, Cyclic(0, 1024, 1<<30)); err == nil {
		t.Error("cancelled local profile should fail")
	}
}
