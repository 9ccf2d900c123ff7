package report

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// profiledReport is a real profile in the envelope `rdx -json` writes:
// mcf at a dense period, so every histogram and the attribution are
// populated.
func profiledReport(tb testing.TB) *Report {
	tb.Helper()
	r, err := workloads.Build("mcf", 1, 1<<16)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 1024
	p, err := core.NewProfiler(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := p.Run(r, cpumodel.Default())
	if err != nil {
		tb.Fatal(err)
	}
	return New("mcf", "", wire.FromCore(res, true))
}

// FuzzReportDiff feeds `rdx diff` hostile report files: whatever the
// bytes, Decode and DiffReports must not panic, and a report Decode
// accepts must re-marshal into one that decodes to the same report.
func FuzzReportDiff(f *testing.F) {
	valid := profiledReport(f)
	data, err := json.MarshalIndent(valid, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"rdx.report/v1","source":"mcf"}`))
	for _, n := range []int{1, len(data) / 4, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		// Errors are fine (no profile, mismatched granularity); panics
		// are not.
		DiffReports(r, r)
		DiffReports(valid, r)
		DiffReports(r, valid)

		again, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted report does not re-marshal: %v", err)
		}
		r2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-marshaled report does not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("report changed across a marshal round trip:\nfirst  %+v\nsecond %+v", r, r2)
		}
	})
}
