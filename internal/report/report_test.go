package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 42)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "name", "value", "alpha", "1.5000", "beta", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{12.345, "12.35"},
		{0.0512, "0.0512"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.v); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestBytes(t *testing.T) {
	tests := []struct {
		v    uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
		{5 << 30, "5.00GiB"},
	}
	for _, tt := range tests {
		if got := Bytes(tt.v); got != tt.want {
			t.Errorf("Bytes(%d) = %q, want %q", tt.v, got, tt.want)
		}
	}
}
