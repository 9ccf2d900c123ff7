package mem

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("Kind strings: got %q, %q", Load, Store)
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("unknown kind: got %q", got)
	}
}

func TestGranularityBlock(t *testing.T) {
	tests := []struct {
		g    Granularity
		addr Addr
		want Addr
	}{
		{ByteGranularity, 1234, 1234},
		{WordGranularity, 0, 0},
		{WordGranularity, 7, 0},
		{WordGranularity, 8, 1},
		{WordGranularity, 1<<40 + 9, 1<<37 + 1},
		{LineGranularity, 63, 0},
		{LineGranularity, 64, 1},
		{LineGranularity, 128, 2},
	}
	for _, tt := range tests {
		if got := tt.g.Block(tt.addr); got != tt.want {
			t.Errorf("%v.Block(%d) = %d, want %d", tt.g, tt.addr, got, tt.want)
		}
	}
}

func TestGranularityBlockBase(t *testing.T) {
	if got := LineGranularity.BlockBase(Addr(130)); got != 128 {
		t.Errorf("BlockBase(130) = %d, want 128", got)
	}
	if got := WordGranularity.BlockBase(Addr(15)); got != 8 {
		t.Errorf("BlockBase(15) = %d, want 8", got)
	}
}

func TestGranularityBlockSizeAndString(t *testing.T) {
	if LineGranularity.BlockSize() != 64 {
		t.Errorf("line block size = %d, want 64", LineGranularity.BlockSize())
	}
	if got := LineGranularity.String(); got != "64B" {
		t.Errorf("line string = %q, want 64B", got)
	}
	if got := ByteGranularity.String(); got != "1B" {
		t.Errorf("byte string = %q", got)
	}
}

func TestBlockConsistencyProperty(t *testing.T) {
	// Two addresses map to the same block iff their block bases agree.
	f := func(a, b uint64, gRaw uint8) bool {
		g := Granularity(gRaw % 13)
		sameBlock := g.Block(Addr(a)) == g.Block(Addr(b))
		sameBase := g.BlockBase(Addr(a)) == g.BlockBase(Addr(b))
		return sameBlock == sameBase
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockBaseWithinBlockProperty(t *testing.T) {
	f := func(a uint64, gRaw uint8) bool {
		g := Granularity(gRaw % 13)
		base := g.BlockBase(Addr(a))
		return base <= Addr(a) && Addr(a)-base < Addr(g.BlockSize())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
