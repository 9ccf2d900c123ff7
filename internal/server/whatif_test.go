package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	rdx "repro"
	"repro/internal/server"
	"repro/internal/trace"
)

// whatIfResult mirrors the POST /whatif response body.
type whatIfResult struct {
	Token    string            `json:"token"`
	Seq      uint64            `json:"seq"`
	Final    bool              `json:"final"`
	Accesses uint64            `json:"accesses"`
	Report   *rdx.WhatIfReport `json:"report"`
}

func postWhatIf(t *testing.T, base string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// TestWhatIfEndpoint is the server-side what-if acceptance test: a
// profiling session streams batches to rdxd, and POST /whatif answers
// cache questions from the retained state — the live checkpoint before
// Finish, the final result after — without re-executing any accesses.
func TestWhatIfEndpoint(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()
	cfg := testConfig(400)

	accs, err := trace.Collect(trace.ZipfAccess(9, 0, 1<<14, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	// Sync acks only after the checkpoint is durable in the store, so
	// the live session is queryable from here on.
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	executed := s.MetricsSnapshot().AccessesTotal
	resp, body := postWhatIf(t, base, `{"token":"`+reply.Token+`","spec":"l2.size=2x"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live what-if: %d %s", resp.StatusCode, body)
	}
	var live whatIfResult
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	if live.Final {
		t.Error("live session answered as final")
	}
	if live.Seq != 1 {
		t.Errorf("answer covers seq %d, want 1", live.Seq)
	}
	if live.Accesses != uint64(len(accs)) {
		t.Errorf("snapshot covers %d accesses, want %d", live.Accesses, len(accs))
	}
	rep := live.Report
	if rep == nil || len(rep.Base.Levels) != 3 || len(rep.Modified.Levels) != 3 {
		t.Fatalf("report shape: %+v", rep)
	}
	wantL2 := 2 * rdx.TypicalHierarchy()[1].Config.SizeBytes
	if rep.Modified.Levels[1].SizeBytes != wantL2 {
		t.Errorf("modified L2 size = %d, want %d", rep.Modified.Levels[1].SizeBytes, wantL2)
	}
	if len(rep.Curve.Points) == 0 {
		t.Error("report missing miss-ratio curve")
	}
	for _, l := range rep.Base.Levels {
		if l.Global < 0 || l.Global > 1 || l.Local < 0 || l.Local > 1 {
			t.Errorf("level %s ratios out of range: %+v", l.Name, l)
		}
	}
	// The defining property: the answer came from retained state, not
	// from replaying the stream through the profiler.
	if after := s.MetricsSnapshot().AccessesTotal; after != executed {
		t.Errorf("what-if re-executed accesses: %d -> %d", executed, after)
	}

	// After Finish the same token answers from the retained final
	// result, bit-identical to a local profile's prediction.
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	resp, body = postWhatIf(t, base, `{"token":"`+reply.Token+`","spec":"l2.size=2x"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final what-if: %d %s", resp.StatusCode, body)
	}
	var final whatIfResult
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if !final.Final {
		t.Error("finished session not answered as final")
	}
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), trace.FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.PredictHierarchy(rdx.TypicalHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Report.Base, want) {
		t.Errorf("final base prediction differs from local profile:\n got %+v\nwant %+v", final.Report.Base, want)
	}

	// A caller-supplied base hierarchy replaces the default.
	resp, body = postWhatIf(t, base, `{"token":"`+reply.Token+`","spec":"l2.ways=full","hierarchy":[`+
		`{"name":"l1","size_bytes":8192,"line_bytes":64,"ways":2},`+
		`{"name":"l2","size_bytes":65536,"line_bytes":64,"ways":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom-base what-if: %d %s", resp.StatusCode, body)
	}
	var custom whatIfResult
	if err := json.Unmarshal(body, &custom); err != nil {
		t.Fatal(err)
	}
	if n := len(custom.Report.Base.Levels); n != 2 {
		t.Fatalf("custom base has %d levels, want 2", n)
	}
	if w := custom.Report.Modified.Levels[1].Ways; w != 0 {
		t.Errorf("l2.ways=full left ways = %d", w)
	}

	if m := s.MetricsSnapshot(); m.WhatIfRequests != 3 {
		t.Errorf("whatif_requests = %d, want 3", m.WhatIfRequests)
	}
}

// TestWhatIfRejections: malformed requests get descriptive 4xx answers,
// and every attempt is counted.
func TestWhatIfRejections(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()

	c := dial(t, s)
	reply, err := c.Open(testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(trace.Cyclic(0, 256, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed spec", `{"token":"` + reply.Token + `","spec":"l2.banks=9"}`, http.StatusBadRequest},
		{"missing spec", `{"token":"` + reply.Token + `"}`, http.StatusBadRequest},
		{"invalid ways", `{"token":"` + reply.Token + `","spec":"l1.ways=-3"}`, http.StatusBadRequest},
		{"bad json", `{"token"`, http.StatusBadRequest},
		{"unknown field", `{"token":"` + reply.Token + `","spec":"l2.size=2x","resample":true}`, http.StatusBadRequest},
		{"bytes after the value", `{"token":"` + reply.Token + `","spec":"l2.size=2x"} {"garbage":`, http.StatusBadRequest},
		{"unknown token", `{"token":"0123456789abcdef0123456789abcdef","spec":"l2.size=2x"}`, http.StatusNotFound},
		{"malformed token", `{"token":"nope","spec":"l2.size=2x"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := postWhatIf(t, base, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}

	resp, err := http.Get(base + "/whatif")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /whatif: %d, want 405", resp.StatusCode)
	}

	if m := s.MetricsSnapshot(); m.WhatIfRequests != uint64(len(cases)) {
		t.Errorf("whatif_requests = %d, want %d", m.WhatIfRequests, len(cases))
	}
}

// TestWhatIfDraining: a draining daemon sheds analysis queries with the
// same 503 + Retry-After contract the ingest path uses.
func TestWhatIfDraining(t *testing.T) {
	s := start(t, server.Config{
		AdminAddr:      "127.0.0.1:0",
		RetryAfterHint: 2 * time.Second,
	})
	base := "http://" + s.AdminAddr()
	c := dial(t, s)
	if _, err := c.Open(testConfig(500)); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.MetricsSnapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain never became visible")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(base+"/whatif", "application/json",
		bytes.NewReader([]byte(`{"token":"0123456789abcdef0123456789abcdef","spec":"l2.size=2x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining what-if: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("drain did not complete cleanly: %v", err)
	}
}

// TestWhatIfHostileSweep: a sweep in the body is bounded by mrc, so a
// hostile one is answered with a bounded curve well inside the admin
// timeout, instead of a 503 while the handler goroutine spins on.
func TestWhatIfHostileSweep(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()
	c := dial(t, s)
	reply, err := c.Open(testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(trace.Cyclic(0, 4096, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []string{
		`{"max_lines":18446744073709551615}`,
		`{"max_lines":1048576,"points_per_doubling":67108864}`,
		`{"min_lines":18446744073709551615,"points_per_doubling":9223372036854775807}`,
	} {
		begin := time.Now()
		resp, body := postWhatIf(t, base, `{"token":"`+reply.Token+`","spec":"l2.size=2x","sweep":`+sweep+`}`)
		if took := time.Since(begin); took > 5*time.Second {
			t.Errorf("sweep %s: answered after %v", sweep, took)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("sweep %s: status %d (%s)", sweep, resp.StatusCode, body)
			continue
		}
		var res whatIfResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if n := len(res.Report.Curve.Points); n == 0 || n > 49*64+1 {
			t.Errorf("sweep %s: %d curve points", sweep, n)
		}
	}
}
