package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mrc"
	"repro/internal/report"
	"repro/internal/wire"
)

// POST /whatif answers cache what-if questions from retained session
// state — a live session's latest durable checkpoint or a finished
// session's final result — without re-profiling. The profile's
// reuse-distance histogram already contains everything the analytical
// cache models need, so the answer costs one checkpoint decode plus
// curve arithmetic, never a replay of the access stream.

// whatIfLevel is one cache level in the request's optional base
// hierarchy, with explicit wire names (internal/cache carries none).
type whatIfLevel struct {
	Name      string `json:"name"`
	SizeBytes uint64 `json:"size_bytes"`
	LineBytes uint64 `json:"line_bytes"`
	Ways      int    `json:"ways"` // 0 = fully associative
}

// whatIfRequest is the POST /whatif body. Token is the session token
// from the open reply; Spec is the what-if specification
// ("l2.size=2x,l1.ways=4"). Hierarchy optionally replaces the default
// base (TypicalHierarchy); Sweep optionally shapes the returned curve.
type whatIfRequest struct {
	Token     string        `json:"token"`
	Spec      string        `json:"spec"`
	Hierarchy []whatIfLevel `json:"hierarchy,omitempty"`
	Sweep     mrc.Sweep     `json:"sweep,omitempty"`
}

// whatIfResponse wraps the report with the provenance of the answer:
// which batch sequence the profile state covers and whether it came
// from a finished session's final result.
type whatIfResponse struct {
	// Schema versions the response envelope, shared with `rdx -json`
	// reports and `rdx diff` (see internal/report).
	Schema   string      `json:"schema"`
	Token    string      `json:"token"`
	Seq      uint64      `json:"seq"`
	Final    bool        `json:"final"`
	Accesses uint64      `json:"accesses"`
	Report   *mrc.Report `json:"report"`
}

// retryAfterSeconds renders the configured shed backoff as a
// Retry-After header value (whole seconds, minimum 1).
func (s *Server) retryAfterSeconds() string {
	secs := int(math.Ceil(s.cfg.RetryAfterHint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// decodeWhatIfRequest decodes a POST /whatif body strictly, refusing one
// over maxControlBody or without a spec. The sweep it carries needs no
// check here: mrc bounds every sweep's grid.
func decodeWhatIfRequest(body []byte) (whatIfRequest, error) {
	var req whatIfRequest
	if len(body) > maxControlBody {
		return req, fmt.Errorf("body of %d bytes exceeds limit %d", len(body), maxControlBody)
	}
	if err := unmarshalStrict(body, &req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if req.Spec == "" {
		return req, fmt.Errorf("missing what-if spec")
	}
	return req, nil
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.metrics.whatifRequests.Add(1)

	// Same drain semantics as /healthz: a draining daemon answers 503 so
	// load balancers stop routing analysis queries here, with the shed
	// backoff clients already honor on the ingest path.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}

	body, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	req, err := decodeWhatIfRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	res, seq, final, err := s.resultForToken(req.Token)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	base := cache.TypicalHierarchy()
	if len(req.Hierarchy) > 0 {
		base = make([]cache.LevelSpec, len(req.Hierarchy))
		for i, l := range req.Hierarchy {
			base[i] = cache.LevelSpec{Name: l.Name, Config: cache.Config{
				SizeBytes: l.SizeBytes, LineBytes: l.LineBytes, Ways: l.Ways,
			}}
		}
	}
	rep, err := res.WhatIf(base, req.Spec, req.Sweep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(mustJSON(whatIfResponse{
		Schema:   report.SchemaVersion,
		Token:    req.Token,
		Seq:      seq,
		Final:    final,
		Accesses: res.Accesses,
		Report:   rep,
	}))
}

// resultForToken reconstructs a profile Result from the retained state
// for token: a finished session's final result verbatim, or a live
// session's checkpoint decoded and snapshotted in this goroutine —
// the runner, if still executing batches, is never touched.
func (s *Server) resultForToken(token string) (*core.Result, uint64, bool, error) {
	ent, err := s.ckpts.load(token)
	if err != nil {
		return nil, 0, false, err
	}
	if ent.final != nil {
		var wres wire.Result
		if err := json.Unmarshal(ent.final, &wres); err != nil {
			return nil, 0, false, fmt.Errorf("decoding retained result: %v", err)
		}
		return wire.ToCore(&wres), ent.seq, true, nil
	}
	prof, _, err := core.RestoreProfiler(ent.blob)
	if err != nil {
		return nil, 0, false, fmt.Errorf("decoding checkpoint: %v", err)
	}
	return prof.Snapshot(), ent.seq, false, nil
}
