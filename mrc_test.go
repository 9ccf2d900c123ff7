package rdx

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
)

func TestSessionMissRatio(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.SamplePeriod = 400
	s := New(WithConfig(cfg))
	curve, err := s.MissRatio(ctx, ZipfAccess(3, 0, 1<<14, 1.0, 150000), SizeSweep{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) == 0 {
		t.Fatal("empty curve")
	}
	for i, p := range curve.Points {
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Fatalf("point %d out of range: %v", i, p.MissRatio)
		}
		if i > 0 && p.MissRatio > curve.Points[i-1].MissRatio+1e-12 {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	// The curve samples the stack-distance identity; an equal-seed
	// profile must agree with it point for point.
	res, err := s.Profile(ctx, ZipfAccess(3, 0, 1<<14, 1.0, 150000))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range curve.Points {
		if want := cache.PredictMissRatio(res.ReuseDistance, p.Lines); math.Abs(p.MissRatio-want) > 1e-12 {
			t.Errorf("curve @%d = %v, single-point = %v", p.Lines, p.MissRatio, want)
		}
	}
	// Footprint-based variant is also monotone and bounded.
	smooth := res.MissRatioCurveSmooth(SizeSweep{MaxLines: 1 << 22})
	for i, p := range smooth.Points {
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Fatalf("smooth point %d out of range: %v", i, p.MissRatio)
		}
		if i > 0 && p.MissRatio > smooth.Points[i-1].MissRatio+1e-12 {
			t.Fatalf("smooth curve not monotone at %d", i)
		}
	}
}

func TestSessionWhatIf(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.SamplePeriod = 400
	cfg.Granularity = LineGranularity
	s := New(WithConfig(cfg))
	rep, err := s.WhatIf(ctx, ZipfAccess(5, 0, 1<<15, 0.9, 150000), nil, "l2.size=2x", SizeSweep{})
	if err != nil {
		t.Fatal(err)
	}
	base := TypicalHierarchy()
	if rep.Modified.Levels[1].SizeBytes != 2*base[1].Config.SizeBytes {
		t.Errorf("modified L2 size = %d", rep.Modified.Levels[1].SizeBytes)
	}
	if len(rep.Curve.Points) == 0 {
		t.Error("what-if report missing curve")
	}
	if _, err := s.WhatIf(ctx, ZipfAccess(5, 0, 1<<15, 0.9, 1000), nil, "l2.banks=9", SizeSweep{}); err == nil {
		t.Error("malformed what-if spec accepted")
	}
	if _, err := ParseWhatIf("llc.ways=full", base); err != nil {
		t.Errorf("ParseWhatIf: %v", err)
	}
}
