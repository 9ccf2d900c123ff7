package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, as the benchmark saw it from
// outside: the layer's name, when the call started and ended, the span
// that caused it, and the session and batch it served.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session uint64 `json:"session,omitempty"`
	Batch   uint64 `json:"batch,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part of it its children
	// cover; filled in when the spans are written out.
	SelfNS int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip the bookkeeping.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span. The returned value is closed with finish.
func (r *recorder) start(name string, parent, session, batch uint64) span {
	if r == nil {
		return span{}
	}
	return span{
		Name: name, ID: r.ids.Add(1), Parent: parent,
		Session: session, Batch: batch,
		StartNS: int64(time.Since(r.epoch)),
	}
}

// finish closes a span opened by start and keeps it.
func (r *recorder) finish(s span) {
	if r == nil {
		return
	}
	s.EndNS = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// computeSelf fills SelfNS for every span: its duration minus the union
// of its children's intervals, clipped to the parent.
func computeSelf(spans []span) {
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.SelfNS = p.EndNS - p.StartNS - covered
	}
}

// summarize computes self times and aggregates the spans by name, in
// descending order of self time.
func (r *recorder) summarize() []spanSummary {
	computeSelf(r.spans)
	by := make(map[string]*spanSummary)
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalNS += s.EndNS - s.StartNS
		a.SelfNS += s.SelfNS
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// write stores the spans and their per-name summary as JSON in dir and
// prints the summary to w.
func (r *recorder) write(dir, name string, w io.Writer) (string, error) {
	sum := r.summarize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{sum, r.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(w, "# spans: %d written to %s\n", len(r.spans), path)
	fmt.Fprintf(w, "# %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range sum {
		fmt.Fprintf(w, "# %-24s %8d %12.3f %12.3f\n", s.Name, s.Count, float64(s.TotalNS)/1e6, float64(s.SelfNS)/1e6)
	}
	return path, nil
}
