package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mrc"
	"repro/internal/wire"
)

// Repetitions of the isolated stages, so each total covers enough calls
// to be steady.
const (
	ledgerWirePasses = 2  // passes over every kernel trace
	ledgerCoreReps   = 4  // passes over the session-churn variants
	ledgerMerges     = 50 // MergeResults calls
)

// ledger is the stage ledger of a traced run: each layer called in
// isolation on the benchmark's own inputs, timed from outside.
type ledger struct {
	// Wire stages on the stream-steady batches.
	wireBatches, wireAccesses, wireBytes, wireMallocs uint64
	encode, frame, decode                             time.Duration
	// Engine stages on the stream-steady batches: NewProfiler +
	// NewMachine + ExecuteColumns, and the checkpoint taken every
	// syncEvery batches.
	execAccesses, execBatches uint64
	execute                   time.Duration
	streamCkpts               int
	streamCkpt                time.Duration
	// Core and mrc stages on the session-churn variants.
	coreCalls                             int
	snapshot, checkpoint, restore, whatIf time.Duration
	checkpointBytes                       uint64
	merges                                int
	merge                                 time.Duration

	traceOverheadPct float64
}

// timed runs f and returns how long it took, recording it as a span.
func timed(b *bench, name string, parent, session, batch uint64, f func() error) (time.Duration, error) {
	sp := b.rec.start(name, parent, session, batch)
	start := time.Now()
	err := f()
	d := time.Since(start)
	b.rec.finish(sp)
	return d, err
}

func runLedger(ctx context.Context, b *bench, env *environment, out *outcome) (*ledger, error) {
	l := &ledger{}
	root := b.rec.start("ledger", 0, 0, 0)
	defer b.rec.finish(root)
	if err := l.wireStages(b, root.ID, env.stream); err != nil {
		return nil, err
	}
	if err := l.engineStages(b, root.ID, env.stream); err != nil {
		return nil, err
	}
	if err := l.coreStages(b, root.ID, env.churn); err != nil {
		return nil, err
	}
	for i := range ledgerMerges {
		d, _ := timed(b, "core.merge", root.ID, uint64(i+1), 0, func() error {
			core.MergeResults(out.local.threads)
			return nil
		})
		l.merge += d
		l.merges++
	}
	return l, ctx.Err()
}

// wireStages encodes, frames and decodes every stream-steady batch the
// way client and daemon do: Columns.AppendBatch + EncodeColumns,
// WriteFrame + ReadFramePooled, DecodeColumnsInto.
func (l *ledger) wireStages(b *bench, parent uint64, s *streamSteady) error {
	enc, dec := wire.GetColumns(), wire.GetColumns()
	defer wire.PutColumns(enc)
	defer wire.PutColumns(dec)
	var payload []byte
	var frame bytes.Buffer
	runtime.GC()
	_, mallocs0, _, _ := readRuntime()
	var seq uint64
	for range ledgerWirePasses {
		for k, tr := range s.traces {
			for off := 0; off < len(tr); off += streamBatch {
				batch := tr[off:min(off+streamBatch, len(tr))]
				seq++
				d, err := timed(b, "wire.encode", parent, uint64(k+1), seq, func() error {
					enc.Reset()
					enc.AppendBatch(batch)
					var err error
					payload, err = wire.EncodeColumns(payload[:0], seq, enc)
					return err
				})
				if err != nil {
					return err
				}
				l.encode += d
				var got []byte
				d, err = timed(b, "wire.frame_crc", parent, uint64(k+1), seq, func() error {
					frame.Reset()
					if err := wire.WriteFrame(&frame, wire.FrameBatchV3, payload); err != nil {
						return err
					}
					var err error
					_, got, err = wire.ReadFramePooled(&frame)
					return err
				})
				if err != nil {
					return err
				}
				l.frame += d
				d, err = timed(b, "wire.decode", parent, uint64(k+1), seq, func() error {
					dec.Reset()
					_, err := wire.DecodeColumnsInto(dec, got)
					return err
				})
				wire.PutPayload(got)
				if err != nil {
					return err
				}
				if dec.Len() != len(batch) {
					return fmt.Errorf("ledger: decoded %d accesses, encoded %d", dec.Len(), len(batch))
				}
				l.decode += d
				l.wireBatches++
				l.wireAccesses += uint64(len(batch))
				l.wireBytes += uint64(len(payload))
			}
		}
	}
	_, mallocs1, _, _ := readRuntime()
	l.wireMallocs = mallocs1 - mallocs0
	return nil
}

// engineStages runs every stream-steady batch through a fresh profiler's
// machine with ExecuteColumns, checkpointing at the sync cadence.
func (l *ledger) engineStages(b *bench, parent uint64, s *streamSteady) error {
	cols := wire.GetColumns()
	defer wire.PutColumns(cols)
	var blob []byte
	for k, tr := range s.traces {
		var p *core.Profiler
		var m *cpu.Machine
		d, err := timed(b, "cpu.new_machine", parent, uint64(k+1), 0, func() error {
			var err error
			p, err = core.NewProfiler(s.cfg)
			if err == nil {
				m = p.NewMachine(rdx.DefaultCosts())
			}
			return err
		})
		if err != nil {
			return err
		}
		l.execute += d
		for off, seq := 0, uint64(1); off < len(tr); off, seq = off+streamBatch, seq+1 {
			cols.Reset()
			cols.AppendBatch(tr[off:min(off+streamBatch, len(tr))])
			d, _ := timed(b, "cpu.execute_columns", parent, uint64(k+1), seq, func() error {
				m.ExecuteColumns(cols)
				return nil
			})
			l.execute += d
			l.execAccesses += uint64(cols.Len())
			l.execBatches++
			if seq%syncEvery == 0 {
				d, _ := timed(b, "core.checkpoint_stream", parent, uint64(k+1), seq, func() error {
					blob = p.CheckpointInto(blob)
					return nil
				})
				l.streamCkpt += d
				l.streamCkpts++
			}
		}
	}
	return nil
}

// coreStages profiles each session-churn variant locally, then times
// Snapshot (with footprint conversion), Result.WhatIf on the snapshot,
// CheckpointInto and RestoreProfiler.
func (l *ledger) coreStages(b *bench, parent uint64, c *sessionChurn) error {
	var blob []byte
	for rep := range ledgerCoreReps {
		for vi, v := range c.variants {
			p, err := core.NewProfiler(c.cfg)
			if err != nil {
				return err
			}
			m := p.NewMachine(rdx.DefaultCosts())
			for off := 0; off < len(v.accs); off += churnBatch {
				m.Execute(v.accs[off : off+churnBatch])
			}
			id := uint64(rep*len(c.variants) + vi + 1)
			var res *core.Result
			d, _ := timed(b, "core.snapshot", parent, id, 0, func() error {
				res = p.Snapshot()
				return nil
			})
			l.snapshot += d
			d, err = timed(b, "mrc.whatif", parent, id, 0, func() error {
				_, err := res.WhatIf(rdx.TypicalHierarchy(), whatIfSpec, mrc.Sweep{})
				return err
			})
			if err != nil {
				return err
			}
			l.whatIf += d
			d, _ = timed(b, "core.checkpoint", parent, id, 0, func() error {
				blob = p.CheckpointInto(blob)
				return nil
			})
			l.checkpoint += d
			l.checkpointBytes += uint64(len(blob))
			d, err = timed(b, "core.restore", parent, id, 0, func() error {
				_, _, err := core.RestoreProfiler(blob)
				return err
			})
			if err != nil {
				return err
			}
			l.restore += d
			l.coreCalls++
		}
	}
	return nil
}

func perCall(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// stageUS are the isolated per-batch costs of a stream-steady batch, in
// microseconds: the stages the daemon's own CPU time is measured against.
func (l *ledger) stageUS(ckptsPerBatch float64) (encode, frame, decode, execute, ckpt float64) {
	n := int(l.wireBatches)
	return perCall(l.encode, n, time.Microsecond),
		perCall(l.frame, n, time.Microsecond),
		perCall(l.decode, n, time.Microsecond),
		perCall(l.execute, int(l.execBatches), time.Microsecond),
		perCall(l.streamCkpt, l.streamCkpts, time.Microsecond) * ckptsPerBatch
}

// perLayerMetrics derives the per-layer metrics from the ledger and the
// phases' untraced outputs.
func perLayerMetrics(l *ledger, env *environment, out *outcome, gcFraction float64) map[string]float64 {
	st, ch := out.stream, out.churn
	ckptsPerBatch := float64(st.daemon.checkpoints) / float64(st.daemon.batches)
	enc, frm, dec, exe, ckpt := l.stageUS(ckptsPerBatch)
	cpuUS := float64(st.win.dProcCPU) / float64(time.Microsecond) / float64(st.batches)

	var samples, traps, armed, evicted, pairs uint64
	for _, r := range out.local.threads {
		samples += r.Samples
		traps += r.Traps
		armed += r.ArmedSamples
		evicted += r.Evicted
		pairs += r.ReusePairs
	}
	return map[string]float64{
		"wire.encode_ns_per_access":    float64(l.encode) / float64(l.wireAccesses),
		"wire.frame_crc_ns_per_batch":  float64(l.frame) / float64(l.wireBatches),
		"wire.decode_ns_per_access":    float64(l.decode) / float64(l.wireAccesses),
		"wire.bytes_per_access":        float64(l.wireBytes) / float64(l.wireAccesses),
		"wire.allocs_per_batch":        float64(l.wireMallocs) / float64(l.wireBatches),
		"cpu.execute_ns_per_access":    float64(l.execute) / float64(l.execAccesses),
		"pmu.samples":                  float64(samples),
		"debugreg.traps":               float64(traps),
		"debugreg.armed_ratio":         float64(armed) / float64(samples),
		"debugreg.evicted_ratio":       float64(evicted) / float64(armed),
		"core.reuse_pairs_per_sample":  float64(pairs) / float64(samples),
		"core.snapshot_us":             perCall(l.snapshot, l.coreCalls, time.Microsecond),
		"core.checkpoint_us":           perCall(l.checkpoint, l.coreCalls, time.Microsecond),
		"core.checkpoint_bytes":        float64(l.checkpointBytes) / float64(l.coreCalls),
		"core.restore_us":              perCall(l.restore, l.coreCalls, time.Microsecond),
		"mrc.whatif_us":                perCall(l.whatIf, l.coreCalls, time.Microsecond),
		"core.merge_us":                perCall(l.merge, l.merges, time.Microsecond),
		"exact.ns_per_access":          env.local.exactSeconds * 1e9 / float64(env.local.exactAccesses),
		"server.open_ms":               median(ch.openMS),
		"server.finish_ms":             median(ch.finishMS),
		"server.cpu_us_per_batch":      cpuUS,
		"server.residual_us_per_batch": cpuUS - (enc + frm + dec + exe + ckpt),
		"server.checkpoints_per_batch": ckptsPerBatch,
		"server.peak_queue_depth":      float64(st.daemon.peakQueue),
		"server.executor_steal_ratio":  float64(st.daemon.steals) / float64(st.daemon.steps),
		"session.allocs_per_session":   float64(ch.win.dMalloc) / float64(ch.sessions),
		"stream.allocs_per_batch":      float64(st.win.dMalloc) / float64(st.batches),
		"go.gc_cpu_fraction":           gcFraction,
		"trace.overhead_pct":           l.traceOverheadPct,
	}
}

// printLedger prints the stage ledger: one stream-steady batch's cost
// by stage against the process CPU time a batch took end to end, the
// per-session fixed cost against the per-batch steady cost, and the
// modelled overhead beside the wall-clock figures.
func printLedger(w io.Writer, l *ledger, env *environment, m map[string]float64, out *outcome) {
	st, ch := out.stream, out.churn
	ckptsPerBatch := m["server.checkpoints_per_batch"]
	enc, frm, dec, exe, ckpt := l.stageUS(ckptsPerBatch)
	base := m["server.cpu_us_per_batch"]
	fmt.Fprintf(w, "# stage ledger: one stream-steady batch of %d accesses; process CPU %.1f us/batch over %d batches\n", streamBatch, base, st.batches)
	for _, s := range []struct {
		name string
		us   float64
	}{
		{"wire.encode", enc},
		{"wire.frame_crc", frm},
		{"wire.decode", dec},
		{"cpu.execute", exe},
		{fmt.Sprintf("core.checkpoint x%.3f", ckptsPerBatch), ckpt},
		{"residual", m["server.residual_us_per_batch"]},
	} {
		fmt.Fprintf(w, "#   %-28s %10.2f us  %5.1f%%\n", s.name, s.us, 100*s.us/base)
	}
	fmt.Fprintf(w, "# fixed per session (session-churn, %d sessions): open %.3f ms, finish %.3f ms, %.0f allocs/session\n",
		ch.sessions, m["server.open_ms"], m["server.finish_ms"], m["session.allocs_per_session"])
	fmt.Fprintf(w, "# steady per batch (stream-steady, %d batches in %d sessions): %.2f allocs/batch\n",
		st.batches, st.sessions, m["stream.allocs_per_batch"])
	fmt.Fprintf(w, "# modelled by cpumodel at the %d period: time overhead %.2f%%, memory overhead %.2f%%; wall clock: execute %.2f ns/access\n",
		streamPeriod, mean(env.stream.timeOvh), mean(env.stream.memOvh), m["cpu.execute_ns_per_access"])
	fmt.Fprintf(w, "# retries: stream-steady %d, session-churn %d\n", st.daemon.retries, ch.daemon.retries)
}
