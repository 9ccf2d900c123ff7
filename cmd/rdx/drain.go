package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// drainPoll is how often drainBackend re-issues the drain order and
// re-reads the backend's live session count.
const drainPoll = 200 * time.Millisecond

// drainBackend is the -drain verb: order the rdxd at admin to drain,
// migrating its live sessions to the targets (each "addr" or
// "addr=adminaddr"), and wait until it reports zero live sessions or
// ctx expires. The order is re-issued every drainPoll, so sessions
// whose handoff failed transiently, or that reconnected between polls,
// are ordered again until the backend is empty.
func drainBackend(ctx context.Context, admin string, targets []string) error {
	httpc := &http.Client{Timeout: 5 * time.Second}
	order, err := json.Marshal(map[string]any{"to": targets})
	if err != nil {
		return err
	}
	t := time.NewTicker(drainPoll)
	defer t.Stop()
	for {
		if err := adminCall(ctx, httpc, http.MethodPost, admin, "/drain", order, nil); err != nil {
			return err
		}
		var m struct {
			SessionsActive int64 `json:"sessions_active"`
		}
		if err := adminCall(ctx, httpc, http.MethodGet, admin, "/metrics", nil, &m); err != nil {
			return err
		}
		if m.SessionsActive == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain %s: %d sessions still live: %w", admin, m.SessionsActive, ctx.Err())
		case <-t.C:
		}
	}
}

// adminCall makes one request to an rdxd admin endpoint, sending body
// as JSON when it is non-nil, and decodes the reply into out when out
// is non-nil. The reply is read up to 1 MiB; any status but 200 is an
// error that carries the reply text.
func adminCall(ctx context.Context, httpc *http.Client, method, admin, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+admin+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s%s: %s: %s", method, admin, path, resp.Status, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s %s%s: decoding reply: %w", method, admin, path, err)
	}
	return nil
}
