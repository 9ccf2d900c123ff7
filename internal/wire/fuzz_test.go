package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadFrame throws arbitrary bytes at the frame decoder: whatever
// the input — truncated headers, lying length prefixes, checksum
// garbage — it must either decode a frame or return an error, never
// panic, and never allocate more memory than the input can justify.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, FrameOpen, []byte(`{"config":{}}`))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, FrameSnapshot, nil)
	f.Add(seed.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x02})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Helper()
		ft, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode to a stream the
		// decoder accepts again (the payload survived the checksum).
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, ft, payload); werr != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", werr)
		}
		ft2, payload2, rerr := ReadFrame(&buf)
		if rerr != nil || ft2 != ft || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame does not round-trip: %v", rerr)
		}
	})
}

// FuzzReadFrame's EOF contract: an empty stream is io.EOF, anything
// else mid-frame is a descriptive error. Kept as a plain test next to
// the fuzz targets so the contract is pinned even in -short runs.
func TestReadFrameEOFContract(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}
