package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// metrics holds the server-wide counters behind /metrics. Everything is
// an atomic so the hot paths (reader, runner) never take a lock for
// accounting.
type metrics struct {
	sessionsActive atomic.Int64
	sessionsTotal  atomic.Uint64
	accessesTotal  atomic.Uint64
	batchesTotal   atomic.Uint64
	droppedBatches atomic.Uint64
	snapshotsTotal atomic.Uint64
	bytesIn        atomic.Uint64
	batchBytes     atomic.Uint64 // batch-frame payload bytes (both framings)
	peakQueueDepth atomic.Int64
	pipelineDepth  atomic.Int64 // batches decoded but not yet executed

	// Fault-tolerance counters.
	resumedSessions  atomic.Uint64 // sessions reopened from a checkpoint
	resumeFailures   atomic.Uint64 // resume handshakes rejected
	replayedBatches  atomic.Uint64 // replayed duplicates discarded by seq
	shedRequests     atomic.Uint64 // opens answered with retry-after
	checkpointsTotal atomic.Uint64 // checkpoints taken
	checkpointBytes  atomic.Uint64 // cumulative checkpoint blob bytes
	whatifRequests   atomic.Uint64 // POST /whatif analysis queries

	// executorSteps counts the queue items executed under a slot.
	executorSteps atomic.Uint64

	// Live-migration counters.
	migrationsOrdered atomic.Uint64 // migration orders delivered to sessions
	handoffsOut       atomic.Uint64 // sessions handed off to another backend
	handoffsIn        atomic.Uint64 // sessions installed from another backend
	handoffFailures   atomic.Uint64 // handoff pushes a destination refused
	movedResumes      atomic.Uint64 // resume attempts answered with a redirect

	// Continuous-profiling counters.
	driftEvents atomic.Uint64 // windows the drift detector flagged
	wsAlerts    atomic.Uint64 // working-set-past-L3 alert onsets

	rateMu       sync.Mutex
	accessRate   float64 // accesses/sec over the last sample window
	lastAccesses uint64
	lastSample   time.Time
}

// noteQueueDepth records a high-water mark of a session queue at
// enqueue time.
func (m *metrics) noteQueueDepth(depth int) {
	for {
		cur := m.peakQueueDepth.Load()
		if int64(depth) <= cur || m.peakQueueDepth.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// rateLoop samples accessesTotal once per second to derive
// accesses/sec, until stop closes.
func (m *metrics) rateLoop(stop <-chan struct{}) {
	m.rateMu.Lock()
	m.lastSample = time.Now()
	m.rateMu.Unlock()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			total := m.accessesTotal.Load()
			m.rateMu.Lock()
			if dt := now.Sub(m.lastSample).Seconds(); dt > 0 {
				m.accessRate = float64(total-m.lastAccesses) / dt
			}
			m.lastAccesses = total
			m.lastSample = now
			m.rateMu.Unlock()
		}
	}
}

// SessionMetrics is the live state of one session as seen by /metrics.
type SessionMetrics struct {
	ID         uint64 `json:"id"`
	Accesses   uint64 `json:"accesses"`
	StateBytes uint64 `json:"state_bytes"`
	// WindowWSBytes is the working set of the session's latest closed
	// observation window (0 for sessions that never took a snapshot);
	// WSAlert is true while it sits above Config.AlertWorkingSetBytes.
	WindowWSBytes uint64 `json:"window_ws_bytes,omitempty"`
	WSAlert       bool   `json:"ws_alert,omitempty"`
}

// Metrics is the /metrics payload.
type Metrics struct {
	// Load is the routing gauge a pool dispatcher keys least-loaded
	// assignment on: active sessions plus batches decoded but not yet
	// executed — admitted work this backend has not finished. Unlike
	// sessions_active alone it rises while a session's queue backs up,
	// so a backend drowning in one heavy session stops looking idle.
	Load           int64   `json:"load"`
	SessionsActive int64   `json:"sessions_active"`
	SessionsTotal  uint64  `json:"sessions_total"`
	AccessesTotal  uint64  `json:"accesses_total"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
	BatchesTotal   uint64  `json:"batches_total"`
	DroppedBatches uint64  `json:"dropped_batches"`
	// SnapshotsTotal counts the snapshots served, a watched run's
	// window boundaries included.
	SnapshotsTotal uint64 `json:"snapshots_total"`
	BytesIn        uint64 `json:"bytes_in"`
	// BatchBytes is the cumulative batch-frame payload bytes received;
	// BytesPerAccess = BatchBytes/AccessesTotal is the measured wire cost
	// of one access, and CompressionRatio relates it to the 18-byte
	// in-memory access record — the bandwidth multiplier the columnar
	// encoding buys. Both are 0 until the
	// first batch arrives.
	BatchBytes       uint64  `json:"batch_bytes"`
	BytesPerAccess   float64 `json:"bytes_per_access"`
	CompressionRatio float64 `json:"compression_ratio"`
	PeakQueueDepth   int64   `json:"peak_queue_depth"`
	// PipelineQueueDepth is the live count of batches sitting between
	// the decode and execute stages across all sessions.
	PipelineQueueDepth int64 `json:"pipeline_queue_depth"`
	// PoolHitRate is the fraction of frame reads since process start
	// whose payload fit a buffer the wire package kept (a connection's
	// own, or a size class's): 1.0 = no ingest allocation; 0 until the
	// first frame arrives.
	PoolHitRate float64          `json:"pool_hit_rate"`
	Draining    bool             `json:"draining"`
	Sessions    []SessionMetrics `json:"sessions"`

	ResumedSessions  uint64 `json:"resumed_sessions"`
	ResumeFailures   uint64 `json:"resume_failures"`
	ReplayedBatches  uint64 `json:"replayed_batches"`
	ShedRequests     uint64 `json:"shed_requests"`
	CheckpointsTotal uint64 `json:"checkpoints_total"`
	CheckpointBytes  uint64 `json:"checkpoint_bytes"`
	WhatIfRequests   uint64 `json:"whatif_requests"`

	// Execution gauges: the slot count (Config.Workers, the most
	// sessions that execute at once) and the queue items executed under
	// a slot. ExecutorSteals is always 0: sessions run on their own
	// connection goroutines, and nothing is stolen. The field stays so
	// readers of the JSON keep working.
	ExecutorWorkers int    `json:"executor_workers"`
	ExecutorSteps   uint64 `json:"executor_steps"`
	ExecutorSteals  uint64 `json:"executor_steals"`

	// Live-migration counters: handoff traffic in and out.
	MigrationsOrdered uint64 `json:"migrations_ordered"`
	HandoffsOut       uint64 `json:"handoffs_out"`
	HandoffsIn        uint64 `json:"handoffs_in"`
	HandoffFailures   uint64 `json:"handoff_failures"`
	MovedResumes      uint64 `json:"moved_resumes"`

	// Continuous-profiling counters, and the currently-firing alerts —
	// one human-readable line per session whose latest window's working
	// set exceeds the configured (L3-sized) threshold. Every served
	// snapshot closes a window (see SnapshotsTotal).
	DriftEvents   uint64   `json:"drift_events"`
	WSAlertsTotal uint64   `json:"ws_alerts_total"`
	Alerts        []string `json:"alerts,omitempty"`
}

// MetricsSnapshot assembles the current metrics, including the
// per-session gauges.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	sessions := make([]SessionMetrics, 0, len(s.sessions))
	var alerts []string
	for id, sess := range s.sessions {
		sm := SessionMetrics{
			ID:            id,
			Accesses:      sess.accesses.Load(),
			StateBytes:    sess.stateBytes.Load(),
			WindowWSBytes: sess.windowWS.Load(),
			WSAlert:       sess.wsAlert.Load(),
		}
		if sm.WSAlert {
			alerts = append(alerts, fmt.Sprintf(
				"session %d: working set %d bytes grew past L3 (%d bytes)",
				id, sm.WindowWSBytes, s.cfg.AlertWorkingSetBytes))
		}
		sessions = append(sessions, sm)
	}
	draining := s.draining
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	sort.Strings(alerts)

	m := &s.metrics
	m.rateMu.Lock()
	rate := m.accessRate
	m.rateMu.Unlock()
	var hitRate float64
	if gets, misses := wire.PoolStats(); gets > 0 {
		hitRate = 1 - float64(misses)/float64(gets)
	}
	// rawAccessBytes is one access record's in-memory wire-free cost
	// (8-byte address + 8-byte PC + size + kind), the baseline the
	// compression ratio is measured against.
	const rawAccessBytes = 18
	var bytesPerAccess, compression float64
	if acc := m.accessesTotal.Load(); acc > 0 {
		bytesPerAccess = float64(m.batchBytes.Load()) / float64(acc)
		if bytesPerAccess > 0 {
			compression = rawAccessBytes / bytesPerAccess
		}
	}
	return Metrics{
		Load:               m.sessionsActive.Load() + m.pipelineDepth.Load(),
		SessionsActive:     m.sessionsActive.Load(),
		SessionsTotal:      m.sessionsTotal.Load(),
		AccessesTotal:      m.accessesTotal.Load(),
		AccessesPerSec:     rate,
		BatchesTotal:       m.batchesTotal.Load(),
		DroppedBatches:     m.droppedBatches.Load(),
		SnapshotsTotal:     m.snapshotsTotal.Load(),
		BytesIn:            m.bytesIn.Load(),
		BatchBytes:         m.batchBytes.Load(),
		BytesPerAccess:     bytesPerAccess,
		CompressionRatio:   compression,
		PeakQueueDepth:     m.peakQueueDepth.Load(),
		PipelineQueueDepth: m.pipelineDepth.Load(),
		PoolHitRate:        hitRate,
		Draining:           draining,
		Sessions:           sessions,

		ResumedSessions:  m.resumedSessions.Load(),
		ResumeFailures:   m.resumeFailures.Load(),
		ReplayedBatches:  m.replayedBatches.Load(),
		ShedRequests:     m.shedRequests.Load(),
		CheckpointsTotal: m.checkpointsTotal.Load(),
		CheckpointBytes:  m.checkpointBytes.Load(),
		WhatIfRequests:   m.whatifRequests.Load(),

		ExecutorWorkers: s.cfg.Workers,
		ExecutorSteps:   m.executorSteps.Load(),

		MigrationsOrdered: m.migrationsOrdered.Load(),
		HandoffsOut:       m.handoffsOut.Load(),
		HandoffsIn:        m.handoffsIn.Load(),
		HandoffFailures:   m.handoffFailures.Load(),
		MovedResumes:      m.movedResumes.Load(),

		DriftEvents:   m.driftEvents.Load(),
		WSAlertsTotal: m.wsAlerts.Load(),
		Alerts:        alerts,
	}
}
