package mrc_test

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mrc"
)

// absoluteSize returns the byte count an absolute size value names,
// computed in arbitrary precision so no overflow can hide, or nil for a
// multiplier. The suffix table mirrors the spec grammar's; ok is false
// for a number it cannot read.
func absoluteSize(val string) (n *big.Int, ok bool) {
	v := strings.ToLower(strings.TrimSpace(val))
	if strings.HasSuffix(v, "x") {
		return nil, true
	}
	shift := uint(0)
	for _, s := range []struct {
		suffix string
		shift  uint
	}{
		{"kib", 10}, {"mib", 20}, {"gib", 30},
		{"kb", 10}, {"mb", 20}, {"gb", 30},
		{"k", 10}, {"m", 20}, {"g", 30},
		{"b", 0},
	} {
		if strings.HasSuffix(v, s.suffix) {
			v, shift = strings.TrimSpace(strings.TrimSuffix(v, s.suffix)), s.shift
			break
		}
	}
	n, ok = new(big.Int).SetString(v, 10)
	if !ok {
		return nil, false
	}
	return n.Lsh(n, shift), true
}

// FuzzParseSpec feeds the what-if grammar arbitrary specs against the
// typical hierarchy: ParseSpec must never panic, every level of a spec
// it accepts must be a valid cache, and a level whose last size clause
// is absolute must get exactly the byte count written — never a value
// wrapped or saturated to fit 64 bits.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"l2.size=2x",
		"l1.ways=4,llc.size=64MiB",
		"L1.size=0.5x, l1.line=128",
		"llc.ways=full,l2.size=256KiB",
		"l1.size=17179869185GiB",
		"l1.size=18014398509481985KiB",
		"l1.size=nanx",
		"l1.size=infx",
		"l1.size=1e300x",
		"l2.size=99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		base := cache.TypicalHierarchy()
		got, err := mrc.ParseSpec(spec, base)
		if err != nil {
			return
		}
		if len(got) != len(base) {
			t.Fatalf("spec %q: %d levels, want %d", spec, len(got), len(base))
		}
		// The last size clause per level decides its SizeBytes.
		want := make([]*big.Int, len(base))
		for _, clause := range strings.Split(spec, ",") {
			key, val, found := strings.Cut(strings.TrimSpace(clause), "=")
			if !found {
				continue
			}
			level, param, _ := strings.Cut(strings.TrimSpace(key), ".")
			if strings.ToLower(param) != "size" {
				continue
			}
			for i := range base {
				if !strings.EqualFold(base[i].Name, level) {
					continue
				}
				n, ok := absoluteSize(val)
				if !ok {
					t.Fatalf("spec %q: accepted size %q is not a number", spec, val)
				}
				want[i] = n
				break
			}
		}
		for i, l := range got {
			if err := l.Config.Validate(); err != nil {
				t.Errorf("spec %q: level %s accepted but invalid: %v", spec, l.Name, err)
			}
			if w := want[i]; w != nil && (!w.IsUint64() || w.Uint64() != l.Config.SizeBytes) {
				t.Errorf("spec %q: level %s size %d bytes, want %s", spec, l.Name, l.Config.SizeBytes, w)
			}
		}
	})
}
