#!/bin/sh
# Full verification gate: vet, build, and the complete test suite under
# the race detector (the engine's worker pools and sharded oracle are
# concurrent). Run from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if ! test -z "$unformatted"; then
    echo "check: files not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Public-API surface golden: the root package's go doc dump must match
# the committed API.txt, so any accidental export, signature change or
# deletion shows up as a reviewable diff. Regenerate intentionally with:
#   go doc -all . > API.txt
echo "==> public API surface (API.txt)"
go doc -all . > /tmp/rdx-api-surface.txt
if ! diff -u API.txt /tmp/rdx-api-surface.txt; then
    echo "check: public API surface drifted from API.txt" >&2
    echo "check: if intentional, regenerate with: go doc -all . > API.txt" >&2
    exit 1
fi

# Multicore tier-1: the default test pass above runs at the host's
# GOMAXPROCS (1 on the CI box), where sessions never execute in
# parallel and the merge fan-in never runs on two cores. Re-run the
# suite pinned to 4 so those paths are covered even on a single-core
# host.
echo "==> go test ./... (GOMAXPROCS=4)"
GOMAXPROCS=4 go test -count=1 ./...

# Session chaos smoke: 6 concurrent sessions, each on its own
# connection goroutine, sharing 4 execution slots at GOMAXPROCS=4,
# behind a fault-injecting transport, with every session handed off
# mid-stream to a second backend via checkpoint drain. Results must stay
# bit-identical to local ground truth — under the race detector, since
# sessions, readers, drains and the checkpoint writer race by design.
echo "==> session chaos smoke (-race, GOMAXPROCS=4)"
go test -race -run='^TestExecutorChaosGOMAXPROCS4$' -count=1 ./internal/server

# Pool fault smoke: the multi-backend E2E (64 streams, 3 backends,
# injected faults, one backend killed mid-run) must keep producing
# results bit-identical to the local run.
echo "==> pool fault-injection smoke"
go test -run='^TestPoolE2EFaultsAndBackendDeath$' -count=1 ./internal/pool

# Migration chaos smoke: `rdx -drain`'s drain verb against a pooled run
# (64 streams over 3 backends behind a fault-injecting transport): one
# backend drained live via checkpoint handover, itself over a
# fault-injecting transport, and a migration destination killed
# mid-drain. The MultiResult must stay bit-identical to the local run
# and the drained backend must end with zero live sessions — under the
# race detector, since migration races runners, drains, and probers by
# design.
echo "==> migration chaos smoke (-race)"
go test -race -run='^TestDrainChaosE2E$' -count=1 ./cmd/rdx

# Short fuzz smoke on the wire-protocol decoders, the column encoder
# (byte-identical to its reference encoder) and the RDT3 trace-file
# reader: enough to catch a regression in the corpus or an obvious
# panic, cheap enough for CI. The trace reader's target counts
# allocations on every exec, so minimizing a new input is capped at 100
# execs instead of the default 60s, which would take the whole smoke.
echo "==> fuzz smoke (wire codecs and trace reader, 10s each)"
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime=10s ./internal/wire
go test -run='^$' -fuzz='^FuzzDecodeColumns$' -fuzztime=10s ./internal/wire
go test -run='^$' -fuzz='^FuzzEncodeColumns$' -fuzztime=10s ./internal/wire
go test -run='^$' -fuzz='^FuzzTraceReader$' -fuzztime=10s -fuzzminimizetime=100x ./internal/trace

# Short fuzz smoke on the exact oracle: arbitrary short traces at byte,
# word and line granularity, every access's distance checked against
# the naive definition for the sequential and every sharded layout. One
# exec runs the sharded oracle at every shard size, so minimizing a new
# input is capped at 50 execs instead of the default 60s, which would
# take the whole smoke.
echo "==> fuzz smoke (exact oracle vs naive, 10s)"
go test -run='^$' -fuzz='^FuzzExactMatchesNaive$' -fuzztime=10s -fuzzminimizetime=50x ./internal/exact

# Short fuzz smoke on both engines: arbitrary accesses (any address,
# any size 0-255, either kind) under fuzzed PMU and watchpoint settings,
# Run — and ExecuteColumns when every size is at most 15 — checked
# against the per-access RunReference loop: the watch filter must pass
# every access Covers accepts, at both ends of the address space. New inputs turn up often, and minimizing each for the
# default 60s would stall the smoke, so minimizing is capped at 100 execs.
echo "==> fuzz smoke (row and column engines vs reference, 10s)"
go test -run='^$' -fuzz='^FuzzRunMatchesReference$' -fuzztime=10s -fuzzminimizetime=100x ./internal/cpu

# Short fuzz smoke on `rdx diff`'s input: arbitrary bytes as a report
# file must never panic Decode or DiffReports (against itself and
# against a real profile), and any report Decode accepts must survive a
# marshal round trip unchanged.
echo "==> fuzz smoke (report decode and diff, 10s)"
go test -run='^$' -fuzz='^FuzzReportDiff$' -fuzztime=10s ./internal/report

# Short fuzz smoke on the what-if spec grammar (`rdx -whatif`, the
# daemon's /whatif): arbitrary specs must never panic ParseSpec, every
# accepted level must be a valid cache, and an absolute size must come
# out exactly as written, never wrapped to fit 64 bits.
echo "==> fuzz smoke (what-if spec grammar, 10s)"
go test -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime=10s ./internal/mrc

# Short fuzz smoke on checkpoint restore (checkpoint blobs come from
# disk and from peer handoffs): arbitrary bytes must never panic
# RestoreProfiler or make it allocate past its stated per-byte bound,
# and an accepted blob must re-checkpoint to itself byte for byte. New
# inputs turn up often, so minimizing is capped at 100 execs.
echo "==> fuzz smoke (checkpoint restore, 10s)"
go test -run='^$' -fuzz='^FuzzRestoreProfiler$' -fuzztime=10s -fuzzminimizetime=100x ./internal/core

# Short fuzz smoke on the two other payloads a peer sends: the result
# JSON every snapshot and final result carries to the client, and the
# session handoff a draining daemon sends its destination. Arbitrary
# bytes must never panic either decoder or make it allocate past its
# stated bound, and what each accepts must round-trip. Both targets
# measure allocation on every exec, so minimizing is capped at 100
# execs.
echo "==> fuzz smoke (result and handoff decoders, 10s each)"
go test -run='^$' -fuzz='^FuzzDecodeResult$' -fuzztime=10s -fuzzminimizetime=100x ./internal/wire
go test -run='^$' -fuzz='^FuzzDecodeHandoff$' -fuzztime=10s -fuzzminimizetime=100x ./internal/wire

# Short fuzz smoke on the open handshake: the open request the daemon
# reads first off every connection, and the client's decoders of the
# daemon's answers (open reply, retry-after hint, moved redirect).
# Arbitrary bytes must never panic them or make them allocate past
# their stated bounds, and what each accepts must round-trip. Both
# targets measure allocation on every exec, so minimizing is capped at
# 100 execs.
echo "==> fuzz smoke (open handshake decoders, 10s each)"
go test -run='^$' -fuzz='^FuzzDecodeOpenRequest$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
go test -run='^$' -fuzz='^FuzzDecodeOpenReplies$' -fuzztime=10s -fuzzminimizetime=100x ./internal/wire

# Short fuzz smoke on the admin API's bodies: POST /whatif and POST
# /drain. Arbitrary bytes must never panic either decoder or make it
# allocate past its stated bound, what each accepts must round-trip, and
# the sweep a what-if body carries must build a bounded curve. Both
# targets measure allocation on every exec, so minimizing is capped at
# 100 execs.
echo "==> fuzz smoke (admin body decoders, 10s each)"
go test -run='^$' -fuzz='^FuzzDecodeWhatIfRequest$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
go test -run='^$' -fuzz='^FuzzDecodeDrainRequest$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server

# Wire-compression regression gate: each workload shape (strided,
# clustered, sequential) is streamed through one session and the
# server's compression ratio is held against the value committed in the
# test. The columnar encoding is deterministic, so any drop beyond the
# 5% batch-boundary tolerance is a real encoder regression.
echo "==> wire compression gate (column codec shapes vs committed ratios)"
go test -count=1 -run='^TestWireCompressionRatio$' ./internal/server

# MRC differential gate: the analytical miss-ratio curve and hierarchy
# models are re-validated against real cache simulation on the two
# canonical workloads (mcf, lbm); the experiment itself fails if any
# prediction drifts beyond the tolerances committed in internal/mrc.
echo "==> MRC differential gate (curve and hierarchy vs simulation)"
go run ./cmd/rdexper -n 524288 -period 1024 -exp MRC

# Accuracy gate (the paper's >90% claim): T2 profiles the whole suite
# at rdexper's default operating point, where every accuracy repeats
# exactly per seed, and fails if any workload falls more than the
# committed margin below its committed accuracy (internal/experiments).
echo "==> T2 accuracy gate (per-workload floors)"
go run ./cmd/rdexper -exp T2

# Overhead gates (the paper's featherlight time and memory claims): F4
# and F5 profile the whole suite at the same default operating point,
# where every modelled overhead repeats exactly per seed, and fail if any
# workload rises more than the committed margin above its committed
# value (internal/experiments).
echo "==> F4/F5 overhead gates (per-workload ceilings)"
go run ./cmd/rdexper -exp F4,F5

# Drift-detection gate: the DRIFT experiment injects three locality
# shifts into a four-phase workload and fails unless every boundary is
# flagged within the detector's latency budget, no stationary window is
# flagged, and an equally long stationary control produces zero flags.
# This covers the continuous-profiling path (windowed collector, drift
# scoring) that Session.Watch and the rdxd alerts run on.
echo "==> drift detection gate (injected phase changes, stationary control)"
go run ./cmd/rdexper -exp DRIFT

# Report diff smoke: a versioned rdx.report/v1 envelope diffed against
# itself must classify as unchanged — exercises the -json schema,
# report.Load, and the significance machinery end to end.
echo "==> rdx diff self-diff smoke"
rdx_report="$(mktemp /tmp/rdx-report-XXXXXX.json)"
go run ./cmd/rdx -workload mcf -n 262144 -period 1024 -json > "$rdx_report"
diff_out="$(go run ./cmd/rdx diff "$rdx_report" "$rdx_report")"
echo "$diff_out"
rm -f "$rdx_report"
case "$diff_out" in
*unchanged*) ;;
*)
    echo "check: rdx diff self-diff did not classify as unchanged" >&2
    exit 1
    ;;
esac

# Throughput gate: Machine.Run and the exact oracle are timed against
# the per-access reference loop on the local-suite kernels, interleaved,
# and each ratio is held to 75% of its committed value. A ratio cancels
# most of a shared host's load, where an absolute floor does not;
# perfbench's accesses_per_s and setup_s stay the absolute measure.
echo "==> throughput gate (Run and oracle vs reference loop)"
go test -count=1 -run='^TestThroughputGate$' ./internal/core

# Bench smoke: one iteration of the per-package benchmarks, without
# -race (allocation counts and throughput are meaningless under it).
# Catches a benchmark that no longer compiles or crashes outright; the
# numbers themselves are perfbench's to track.
echo "==> bench smoke (1 iteration)"
go test -run='^$' -bench='^(BenchmarkRun|BenchmarkExecuteColumns)$' -benchtime=1x ./internal/cpu
go test -run='^$' -bench='^BenchmarkMeasure$' -benchtime=1x ./internal/exact
go test -run='^$' -bench='^(BenchmarkEncodeColumns|BenchmarkTransposeColumns|BenchmarkDecodeColumns|BenchmarkIngestColumns)$' -benchtime=1x ./internal/wire
go test -run='^$' -bench='^BenchmarkSessionChurn$' -benchtime=1x ./internal/server

echo "check: OK"
