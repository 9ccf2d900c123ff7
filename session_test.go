package rdx

// Differential tests for the options-based Session API: every
// execution strategy a Session selects — the core profiler it wraps,
// any worker count, plain and resilient remote daemons — must produce
// bit-identical results across all watchpoint replacement policies.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
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
	if fingerprint(t, newRes) != localFP {
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

// startDrainable starts an rdxd with an admin listener (the /drain
// endpoint) for one test. A source daemon gets a per-batch step delay
// so a drain lands mid-run.
func startDrainable(t *testing.T, step time.Duration) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		AdminAddr:       "127.0.0.1:0",
		CheckpointEvery: 4,
		StepDelay:       step,
		RetryAfterHint:  5 * time.Millisecond,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

// drainTo waits until src has executed some of the run, then orders it
// through POST /drain to migrate its sessions to dst.
func drainTo(t *testing.T, src, dst *server.Server) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for src.MetricsSnapshot().AccessesTotal < 20000 {
		if time.Now().After(deadline) {
			t.Error("the run made no progress on the source daemon")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	body := fmt.Sprintf(`{"to":[%q]}`, dst.Addr()+"="+dst.AdminAddr())
	resp, err := http.Post("http://"+src.AdminAddr()+"/drain", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /drain: %s", resp.Status)
	}
}

// TestRemoteFollowsDrainWithoutRetry: a Session with one remote and no
// WithRetry streams through the resilient client too, so when its
// daemon is drained mid-run the session migrates to the peer and the
// run completes there. Profile must return the local result, and Watch
// must deliver every window once, in order, with the local windows and
// final result.
func TestRemoteFollowsDrainWithoutRetry(t *testing.T) {
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(37, 0, 8192, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	// 1024-access batches put 16 in each window, so remote boundaries
	// land on the local ones.
	remoteOpts := WithRemoteOptions(RemoteOptions{BatchSize: 1024})
	wo := WindowOptions{EveryAccesses: 16384}

	local, err := New(WithConfig(cfg)).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	lch, err := New(WithConfig(cfg), WithWindow(wo)).Watch(ctx, WatchOptions{Streams: []Reader{FromSlice(accs)}})
	if err != nil {
		t.Fatal(err)
	}
	lwins, lfinal := drainWatch(t, lch)
	if lfinal.Err != nil {
		t.Fatal(lfinal.Err)
	}

	checkMigrated := func(src, dst *server.Server) {
		t.Helper()
		if m := dst.MetricsSnapshot(); m.HandoffsIn == 0 {
			t.Errorf("no session was handed to the peer: %+v", m)
		}
		// The source lets go of a migrated session after its client
		// has been redirected, so wait for it to empty.
		deadline := time.Now().Add(5 * time.Second)
		for src.MetricsSnapshot().SessionsActive != 0 {
			if time.Now().After(deadline) {
				t.Errorf("drained daemon still holds %d live sessions", src.MetricsSnapshot().SessionsActive)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	t.Run("Profile", func(t *testing.T) {
		src, dst := startDrainable(t, time.Millisecond), startDrainable(t, 0)
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := New(WithConfig(cfg), WithRemote(src.Addr()), remoteOpts).Profile(ctx, FromSlice(accs))
			done <- outcome{res, err}
		}()
		drainTo(t, src, dst)
		out := <-done
		if out.err != nil {
			t.Fatalf("remote profile across a drain failed: %v", out.err)
		}
		if fingerprint(t, out.res) != fingerprint(t, local) {
			t.Error("migrated remote profile diverges from local")
		}
		checkMigrated(src, dst)
	})

	t.Run("Watch", func(t *testing.T) {
		src, dst := startDrainable(t, time.Millisecond), startDrainable(t, 0)
		ch, err := New(WithConfig(cfg), WithRemote(src.Addr()), remoteOpts, WithWindow(wo)).
			Watch(ctx, WatchOptions{Streams: []Reader{FromSlice(accs)}})
		if err != nil {
			t.Fatal(err)
		}
		drainTo(t, src, dst)
		wins, final := drainWatch(t, ch)
		if final.Err != nil {
			t.Fatalf("remote watch across a drain failed: %v", final.Err)
		}
		if len(wins) != len(lwins) {
			t.Fatalf("watch delivered %d windows across the drain, local %d", len(wins), len(lwins))
		}
		for i := range wins {
			if fingerprint(t, wins[i].Cumulative.Threads[0]) != fingerprint(t, lwins[i].Cumulative.Threads[0]) {
				t.Errorf("window %d diverges from local", i+1)
			}
		}
		if fingerprint(t, final.Cumulative.Threads[0]) != fingerprint(t, local) {
			t.Error("migrated watched lifetime diverges from local")
		}
		checkMigrated(src, dst)
	})
}
