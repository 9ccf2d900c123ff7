package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against the metric tables.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloadSpecs))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %+v", i, w, workloadSpecs[i])
		}
	}
	for _, c := range []struct {
		kind  string
		file  []struct{ Name, Unit, Better string }
		table []metricSpec
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.file) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.kind, len(c.file), len(c.table))
		}
		for i, m := range c.file {
			if s := c.table[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, m, s)
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the result line: every metric present, finite and with its unit, and
// no operation or check failed. The window is just long enough for the
// measured stream-steady phase to time the 100 syncs its p90 needs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spans := t.TempDir()
	for _, w := range workloadSpecs {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "4", "--trace", traced, "--span-dir", spans}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				specs := endToEnd
				if traced == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", s.name, m, s.unit)
					}
				}
			})
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v := median([]float64{3, 1, 2, 4}); v != 2.5 {
		t.Errorf("median = %v, want 2.5", v)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, StartNS: 15, EndNS: 20},
	}
	computeSelf(spans)
	for i, want := range []int64{50, 25, 30, 5} {
		if spans[i].SelfNS != want {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, spans[i].SelfNS, want)
		}
	}
}
