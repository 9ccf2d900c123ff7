package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/server"
)

// daemon is an rdxd server running in this process on loopback, with
// its admin listener. It keeps its checkpoints in memory: no checkpoint
// directory, because on a shared virtual disk the latency of the small
// checkpoint writes varies between runs by more than any bound the
// benchmark could hold, so the daemon's own cost would be lost in it.
type daemon struct {
	srv   *server.Server
	addr  string
	admin string
	http  *http.Client
}

func startDaemon(b *bench) (*daemon, error) {
	srv, err := server.New(server.Config{
		Workers:   b.nproc,
		AdminAddr: "127.0.0.1:0",
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &daemon{
		srv:   srv,
		addr:  srv.Addr(),
		admin: "http://" + srv.AdminAddr(),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: b.nproc,
		}},
	}, nil
}

func (d *daemon) close() {
	d.http.CloseIdleConnections()
	d.srv.Close()
}

// metrics fetches GET /metrics.
func (d *daemon) metrics(ctx context.Context) (*server.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.admin+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	var m server.Metrics
	if err := d.do(req, &m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &m, nil
}

// whatIfSpec is the what-if question every session-churn session asks.
const whatIfSpec = "l2.size=2x"

// whatIfReply is the part of a POST /whatif answer the benchmark checks.
type whatIfReply struct {
	Seq    uint64          `json:"seq"`
	Final  bool            `json:"final"`
	Report json.RawMessage `json:"report"`
}

// whatIf asks POST /whatif about the session with the given token.
func (d *daemon) whatIf(ctx context.Context, token string) (*whatIfReply, error) {
	body, err := json.Marshal(map[string]string{"token": token, "spec": whatIfSpec})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.admin+"/whatif", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var r whatIfReply
	if err := d.do(req, &r); err != nil {
		return nil, fmt.Errorf("POST /whatif: %w", err)
	}
	return &r, nil
}

func (d *daemon) do(req *http.Request, v any) error {
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// metricsDelta is what the daemon counted over one phase.
type metricsDelta struct {
	batches, checkpoints uint64
	steps, steals        uint64
	retries              uint64
	peakQueue            int64
}

func deltaOf(a, b *server.Metrics) metricsDelta {
	return metricsDelta{
		batches:     b.BatchesTotal - a.BatchesTotal,
		checkpoints: b.CheckpointsTotal - a.CheckpointsTotal,
		steps:       b.ExecutorSteps - a.ExecutorSteps,
		steals:      b.ExecutorSteals - a.ExecutorSteals,
		retries: (b.ShedRequests - a.ShedRequests) + (b.DroppedBatches - a.DroppedBatches) +
			(b.ReplayedBatches - a.ReplayedBatches) + (b.ResumeFailures - a.ResumeFailures),
		peakQueue: b.PeakQueueDepth,
	}
}
