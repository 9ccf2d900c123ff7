package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestCheckpointFileCrashConsistency tests the spill directory's claim
// that a checkpoint file needs no fsync: its checksummed envelope makes
// a torn or damaged file fail to load instead of loading as something
// else. Real RDXS files from a CheckpointDir daemon, a live checkpoint
// and a final result, are cut at every length and have a bit and a
// whole byte flipped at every offset; a store reading each after a
// restart must refuse it with an error or return the original entry
// unchanged.
func TestCheckpointFileCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{CheckpointDir: dir, CheckpointEvery: -1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	accs, err := trace.Collect(trace.Cyclic(0, 512, 20000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 500

	// One session left live after a sync, one finished.
	files := map[string][]byte{}
	for _, finish := range []bool{false, true} {
		c, err := wire.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		reply, err := c.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch(accs); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		if finish {
			if _, err := c.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		files[reply.Token] = nil
	}
	s.Close()

	for token := range files {
		path := filepath.Join(dir, token+".rdxs")
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newCkptStore(dir, 4, 4, t.Logf).load(token)
		if err != nil {
			t.Fatalf("intact checkpoint file refused: %v", err)
		}
		try := func(label string, data []byte) {
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			got, err := newCkptStore(dir, 4, 4, t.Logf).load(token)
			if err == nil && (got.seq != want.seq || !bytes.Equal(got.blob, want.blob) ||
				!bytes.Equal(got.final, want.final) || (got.blob == nil) != (want.blob == nil)) {
				t.Fatalf("%s of a %d-byte file loads as a different entry (seq %d, want %d)",
					label, len(orig), got.seq, want.seq)
			}
		}
		for n := range len(orig) {
			try(fmt.Sprintf("truncation to %d bytes", n), orig[:n])
		}
		data := make([]byte, len(orig))
		for off := range orig {
			for _, mask := range []byte{0x01, 0xFF} {
				copy(data, orig)
				data[off] ^= mask
				try(fmt.Sprintf("flipping byte %d by %#x", off, mask), data)
			}
		}
	}
}
