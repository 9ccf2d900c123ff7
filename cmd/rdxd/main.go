// Command rdxd is the RDX remote-profiling daemon: it accepts streamed
// access traces over the wire protocol, profiles each session with the
// batched engine, and serves health and metrics endpoints for
// operations.
//
// Usage:
//
//	rdxd [-addr 127.0.0.1:9127] [-admin 127.0.0.1:9128] [-workers 0]
//	     [-queue-depth 8] [-max-sessions 64] [-drain-timeout 30s]
//	     [-checkpoint-dir /var/lib/rdxd] [-checkpoint-every 64]
//	     [-read-timeout 5m] [-write-timeout 1m] [-admin-timeout 10s]
//	     [-pprof] [-alert-working-set-bytes 33554432]
//
// SIGTERM or SIGINT drains the daemon: new sessions are refused,
// in-flight sessions get -drain-timeout to finish, stragglers are cut
// off. /healthz reports 503 from the moment draining starts. POST
// /drain on the admin listener drains live instead: each session is
// migrated to another backend by checkpoint handover and its client is
// redirected there (see `rdx -drain`).
//
// Sessions are checkpointed (at open, every -checkpoint-every batches,
// on client sync, and on disconnect) so interrupted clients can resume
// where they left off. With -checkpoint-dir the checkpoints are
// spilled to disk and sessions survive a daemon restart.
//
// A watched session (Session.Watch on the client side) takes a live
// snapshot at each window boundary. The daemon windows each session's
// profile by the snapshots it serves, scores consecutive windows for
// phase drift, and — when a window's working set grows past
// -alert-working-set-bytes — logs an alert once per excursion and
// surfaces it on /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9127", "profiling listener address")
		admin        = flag.String("admin", "127.0.0.1:9128", "admin (healthz/metrics) listener address; empty disables")
		workers      = flag.Int("workers", 0, "most sessions executing at once (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 8, "per-session bounded batch queue depth")
		maxBatch     = flag.Int("max-batch", 1<<20, "largest accepted batch, in accesses")
		maxSessions  = flag.Int("max-sessions", 64, "concurrent session limit")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight sessions get to finish on shutdown")
		ckptDir      = flag.String("checkpoint-dir", "", "spill session checkpoints to this directory so sessions survive a restart; empty keeps them in memory only")
		ckptEvery    = flag.Int("checkpoint-every", 64, "checkpoint each session every N batches (negative disables periodic checkpoints)")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "per-frame read deadline; idle connections past it are dropped and resumable (negative disables)")
		writeTimeout = flag.Duration("write-timeout", time.Minute, "per-frame write deadline for replies (negative disables)")
		adminTimeout = flag.Duration("admin-timeout", 10*time.Second, "end-to-end deadline for each admin API request; a stalled admin client is cut off (negative disables)")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the admin listener")
		alertWS      = flag.Int64("alert-working-set-bytes", 0, "alert (log once per excursion, surface on /metrics) when a watched session's window working set grows past this many bytes; 0 selects the default 32 MiB (a typical L3), negative disables")
	)
	flag.Parse()

	s, err := server.New(server.Config{
		Addr:                 *addr,
		AdminAddr:            *admin,
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		MaxBatch:             *maxBatch,
		MaxSessions:          *maxSessions,
		CheckpointDir:        *ckptDir,
		CheckpointEvery:      *ckptEvery,
		ReadTimeout:          *readTimeout,
		WriteTimeout:         *writeTimeout,
		AdminTimeout:         *adminTimeout,
		EnablePprof:          *pprofOn,
		AlertWorkingSetBytes: *alertWS,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdxd:", err)
		os.Exit(1)
	}
	s.Start()
	log.Printf("rdxd: profiling on %s", s.Addr())
	if a := s.AdminAddr(); a != "" {
		extra := ""
		if *pprofOn {
			extra = ", /debug/pprof/"
		}
		log.Printf("rdxd: admin on http://%s (/healthz, /metrics, /whatif, /drain%s)", a, extra)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("rdxd: %s received, draining (timeout %s)", got, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("rdxd: %v", err)
		os.Exit(1)
	}
	log.Printf("rdxd: drained cleanly")
}
