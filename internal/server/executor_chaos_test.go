package server_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestExecutorChaosGOMAXPROCS4 is the session execution model's
// acceptance test: several sessions, each on its own connection
// goroutine, sharing 4 execution slots with GOMAXPROCS forced to 4 so
// sessions genuinely run in parallel, every connection routed through
// faultnet (seeded drops and partial writes forcing reconnect/resume
// mid-stream), and the source backend drained mid-run so live sessions
// are handed off to a second backend by checkpoint handover. However
// sessions interleave, resume, or migrate, each session's final profile
// must be bit-identical to its local ground truth — only one goroutine
// ever executes a session, so its execution order is the sequential
// one. scripts/check.sh runs this test under -race.
func TestExecutorChaosGOMAXPROCS4(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const (
		sessions  = 6
		accesses  = 100_000
		batchSize = 1024
	)
	cfg := testConfig(400)

	traces := make([][]mem.Access, sessions)
	wants := make([]*wire.Result, sessions)
	for i := range traces {
		accs, err := trace.Collect(trace.ZipfAccess(uint64(31+i), 0, 8192, 1.0, accesses))
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = accs
		wants[i] = localProfile(t, accs, cfg)
	}

	src := start(t, server.Config{
		AdminAddr:       "127.0.0.1:0",
		Workers:         4,
		CheckpointEvery: 4,
		StepDelay:       200 * time.Microsecond, // slow the run so the drain lands mid-stream
		RetryAfterHint:  5 * time.Millisecond,
	})
	dst := start(t, server.Config{
		AdminAddr:       "127.0.0.1:0",
		Workers:         4,
		CheckpointEvery: 4,
	})

	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          41,
		DropAfterMin:  60_000,
		DropAfterMax:  180_000,
		PartialWrites: true,
	}, nil)

	type outcome struct {
		res   *wire.Result
		err   error
		stats wire.ReconnectStats
	}
	outcomes := make([]outcome, sessions)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			policy := testPolicy(uint64(100 + i))
			policy.Dial = faults.DialContext
			rc := wire.NewReconnectingClient(src.Addr(), cfg, policy)
			defer rc.Close()
			res, err := rc.Profile(context.Background(), trace.FromSlice(traces[i]),
				wire.ProfileOptions{BatchSize: batchSize}, 0, nil)
			outcomes[i] = outcome{res, err, rc.Stats()}
		}(i)
	}

	// Let the sessions build up real parallel load, then pull the
	// rug: drain the source so every live session migrates.
	waitFor(t, "progress on source", 20*time.Second, func() bool {
		return src.MetricsSnapshot().AccessesTotal > uint64(sessions*accesses/10)
	})
	src.Drain([]server.MigrateTarget{{Addr: dst.Addr(), Admin: dst.AdminAddr()}})
	wg.Wait()

	var reconnects, moves uint64
	for i, out := range outcomes {
		if out.err != nil {
			t.Fatalf("session %d failed: %v (stats %+v)", i, out.err, out.stats)
		}
		sameWireProfile(t, fmt.Sprintf("chaos session %d vs local", i), out.res, wants[i])
		reconnects += out.stats.Reconnects
		moves += out.stats.Moves
	}
	if reconnects == 0 {
		t.Errorf("no session ever reconnected despite injected drops (%d connections dialed)", faults.Conns())
	}
	if moves == 0 {
		t.Error("no session followed the drain redirect")
	}
	sm, dm := src.MetricsSnapshot(), dst.MetricsSnapshot()
	if sm.ExecutorSteps == 0 || dm.ExecutorSteps == 0 {
		t.Errorf("executor steps: src=%d dst=%d, want both > 0", sm.ExecutorSteps, dm.ExecutorSteps)
	}
	t.Logf("src: steps=%d steals=%d handoffs-out=%d; dst: steps=%d steals=%d handoffs-in=%d; reconnects=%d moves=%d",
		sm.ExecutorSteps, sm.ExecutorSteals, sm.HandoffsOut,
		dm.ExecutorSteps, dm.ExecutorSteals, dm.HandoffsIn, reconnects, moves)
}
