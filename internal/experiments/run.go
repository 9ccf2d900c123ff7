package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment describes one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (any, error)
}

// registry maps experiment IDs (as used in DESIGN.md) to their runners.
var registry = []Experiment{
	{"T1", "exhaustive measurement cost (motivation)", func(o Options) (any, error) { return o.RunT1() }},
	{"T2", "RDX accuracy vs ground truth", func(o Options) (any, error) { return o.RunT2() }},
	{"F3", "histogram overlays (representative workloads)", func(o Options) (any, error) { return o.RunF3() }},
	{"F4", "RDX time overhead", func(o Options) (any, error) { return o.RunF4() }},
	{"F5", "RDX memory overhead", func(o Options) (any, error) { return o.RunF5() }},
	{"F6", "sampling-period sensitivity", func(o Options) (any, error) { return o.RunF6() }},
	{"F7", "debug-register-count sensitivity", func(o Options) (any, error) { return o.RunF7() }},
	{"T8", "SPEC-style memory characterization", func(o Options) (any, error) { return o.RunT8() }},
	{"F9", "miss-ratio prediction vs simulation", func(o Options) (any, error) { return o.RunF9() }},
	{"A1", "ablation: watchpoint replacement policy", func(o Options) (any, error) { return o.RunA1() }},
	{"A2", "ablation: footprint conversion", func(o Options) (any, error) { return o.RunA2() }},
	{"A3", "ablation: cost-calibration sensitivity", func(o Options) (any, error) { return o.RunA3() }},
	{"A4", "ablation: same-word approximation at line granularity", func(o Options) (any, error) { return o.RunA4() }},
	{"A5", "ablation: censored-observation redistribution", func(o Options) (any, error) { return o.RunA5() }},
	{"C1", "case study: use→reuse attribution of a matmul tiling fix", func(o Options) (any, error) { return o.RunC1() }},
	{"MRC", "miss-ratio curves and what-if models vs cache simulation", func(o Options) (any, error) { return o.RunMRC() }},
	{"DRIFT", "phase-change detection on injected locality shifts", func(o Options) (any, error) { return o.RunDrift() }},
}

// IDs returns all experiment IDs in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds an experiment by (case-insensitive) ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	sorted := append([]string(nil), IDs()...)
	sort.Strings(sorted)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, sorted)
}

// Run executes one experiment by ID.
func Run(id string, o Options) (any, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

// RunAll executes every experiment in order, returning results keyed by
// ID. It stops at the first failure. The experiments share one
// ground-truth memo.
func RunAll(o Options) (map[string]any, error) {
	o = o.withGroundTruth()
	out := make(map[string]any, len(registry))
	for _, e := range registry {
		fmt.Fprintf(o.out(), "\n########## %s — %s ##########\n", e.ID, e.Title)
		res, err := e.Run(o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out[e.ID] = res
	}
	return out, nil
}
