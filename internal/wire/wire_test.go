package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		t       FrameType
		payload []byte
	}{
		{FrameOpen, []byte(`{"config":{}}`)},
		{FrameBatchV3, bytes.Repeat([]byte{0xAB}, 100000)},
		{FrameSnapshot, nil},
		{FrameFinish, []byte{}},
		{FrameError, []byte("session limit reached")},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.t, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range frames {
		ft, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != f.t {
			t.Fatalf("frame %d: type %s, want %s", i, ft, f.t)
		}
		if !bytes.Equal(payload, f.payload) && len(f.payload) > 0 {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(f.payload))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: err=%v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameBatchV3, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil || err == io.EOF {
			t.Errorf("cut=%d: truncated frame read as %v", cut, err)
		}
	}
}

// TestFrameDetectsCorruption: flipping any single byte of an encoded
// frame must surface as an error (checksum mismatch, bad length or a
// detectable downstream failure) — never as a silently altered payload.
func TestFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("reuse-distance payload 0123456789")
	if err := WriteFrame(&buf, FrameBatchV3, payload); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		for _, flip := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), full...)
			bad[i] ^= flip
			ft, got, err := ReadFrame(bytes.NewReader(bad))
			if err != nil {
				continue // detected: good
			}
			if ft == FrameBatchV3 && bytes.Equal(got, payload) {
				t.Fatalf("byte %d flipped by %#x decoded unchanged", i, flip)
			}
			t.Fatalf("byte %d flipped by %#x decoded without error as %s frame", i, flip, ft)
		}
	}
}

func TestFrameRejectsOversizedAndZero(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(FrameBatchV3)}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized frame: %v", err)
	}
	zero := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(zero)); err == nil {
		t.Error("zero-length frame accepted")
	}
	if err := WriteFrame(io.Discard, FrameBatchV3, make([]byte, MaxFramePayload+1)); err == nil {
		t.Error("oversized write accepted")
	}
}

// TestResultJSONBitExact: a profiled result survives the JSON trip with
// every float64 bit intact (Go's shortest-exact encoding), which the
// daemon's bit-identical-to-local guarantee rests on.
func TestResultJSONBitExact(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 200
	p, err := core.NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(trace.ZipfAccess(5, 0, 4096, 1.0, 300000), cpumodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := FromCore(res, true)
	if w.ReusePairs == 0 || w.ReuseDistance.Total() == 0 {
		t.Fatal("test profile is empty")
	}

	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(back.ReuseDistance.Snapshot(), w.ReuseDistance.Snapshot()) {
		t.Error("reuse-distance histogram changed across JSON")
	}
	if !reflect.DeepEqual(back.ReuseTime.Snapshot(), w.ReuseTime.Snapshot()) {
		t.Error("reuse-time histogram changed across JSON")
	}
	if !reflect.DeepEqual(back.Attribution, w.Attribution) {
		t.Error("attribution changed across JSON")
	}
	if back.Config != w.Config {
		t.Errorf("config changed across JSON: %+v vs %+v", back.Config, w.Config)
	}
	if math.Float64bits(back.TimeOverhead) != math.Float64bits(w.TimeOverhead) {
		t.Errorf("overhead changed across JSON: %v vs %v", back.TimeOverhead, w.TimeOverhead)
	}
	if back.Accesses != w.Accesses || back.StateBytes != w.StateBytes || !back.Final {
		t.Error("counters changed across JSON")
	}
}

// TestHistogramJSONPreservesWeightBits checks the histogram layer (used
// by Result) against adversarial float values.
func TestHistogramJSONPreservesWeightBits(t *testing.T) {
	h := histogram.New()
	h.Add(1, 0.1)                      // classic non-representable decimal
	h.Add(1000, 1e-300)                // subnormal-adjacent
	h.Add(1<<40, 12345.678901234567)   // many significant digits
	h.Add(histogram.Infinite, 1.0/3.0) // repeating binary fraction
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back histogram.Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Snapshot(), h.Snapshot()) {
		t.Fatalf("histogram JSON not bit-exact:\n got %+v\nwant %+v", back.Snapshot(), h.Snapshot())
	}
}

// TestToCoreInverseOfFromCore is the round-trip property test behind
// the pool's merge: core→wire→core→wire must be byte-identical JSON for
// every replacement policy, so a result shipped back from a backend is
// interchangeable with the local original. Footprint is the documented
// exception (rebuilt at histogram resolution, never shipped) and is
// checked for presence and approximate agreement instead.
func TestToCoreInverseOfFromCore(t *testing.T) {
	policies := []core.ReplacementPolicy{
		core.ReplaceProbabilistic, core.ReplaceReservoir,
		core.ReplaceAlways, core.ReplaceNever, core.ReplaceHybrid,
	}
	for _, pol := range policies {
		cfg := core.DefaultConfig()
		cfg.SamplePeriod = 300
		cfg.Replacement = pol
		p, err := core.NewProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(trace.ZipfAccess(9, 0, 4096, 1.0, 200000), cpumodel.Default())
		if err != nil {
			t.Fatal(err)
		}
		w := FromCore(res, true)
		if w.Account == nil {
			t.Fatalf("%v: FromCore did not ship the cycle account", pol)
		}
		back := ToCore(w)
		w2 := FromCore(back, true)
		j1, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(w2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Errorf("%v: wire form not preserved across ToCore:\n %s\nvs %s", pol, j1, j2)
		}
		if math.Float64bits(back.TimeOverhead()) != math.Float64bits(res.TimeOverhead()) {
			t.Errorf("%v: overhead model did not round-trip: %v vs %v", pol, back.TimeOverhead(), res.TimeOverhead())
		}
		if res.Footprint != nil {
			if back.Footprint == nil {
				t.Fatalf("%v: footprint not rebuilt", pol)
			}
			// Histogram-resolution rebuild: same order of magnitude at a
			// mid-range window, not bit-identity.
			orig, rebuilt := res.Footprint.Footprint(1000), back.Footprint.Footprint(1000)
			if orig > 0 && (rebuilt < orig/4 || rebuilt > orig*4) {
				t.Errorf("%v: rebuilt footprint diverges: fp(1000) = %v vs %v", pol, rebuilt, orig)
			}
		}
	}
}

// TestToCoreMergesLikeLocal checks the property the pool relies on:
// merging wire-round-tripped results is bit-identical to merging the
// originals.
func TestToCoreMergesLikeLocal(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 300
	var local, shipped []*core.Result
	for i := 0; i < 3; i++ {
		p, err := core.NewProfiler(core.ThreadConfig(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(trace.ZipfAccess(uint64(30+i), mem.Addr(uint64(i)<<40), 2048, 1.0, 80000), cpumodel.Default())
		if err != nil {
			t.Fatal(err)
		}
		local = append(local, res)
		shipped = append(shipped, ToCore(FromCore(res, true)))
	}
	want := core.MergeResults(local)
	got := core.MergeResults(shipped)
	if !reflect.DeepEqual(got.ReuseDistance.Snapshot(), want.ReuseDistance.Snapshot()) {
		t.Error("merged reuse-distance differs after wire round-trip")
	}
	if !reflect.DeepEqual(got.Attribution, want.Attribution) {
		t.Error("merged attribution differs after wire round-trip")
	}
	if got.Accesses != want.Accesses || got.Samples != want.Samples || got.ReusePairs != want.ReusePairs {
		t.Error("merged counters differ after wire round-trip")
	}
}

// TestClientRejectsOtherWireVersions: the client offers WireV4 at open
// and refuses a reply naming any other version, so a session can never
// stream batches in a framing the server did not agree to.
func TestClientRejectsOtherWireVersions(t *testing.T) {
	for _, ver := range []int{0, 3, 5} {
		cconn, sconn := net.Pipe()
		offered := make(chan int, 1)
		go func() {
			defer sconn.Close()
			_, payload, err := ReadFrame(sconn)
			if err != nil {
				offered <- -1
				return
			}
			var req OpenRequest
			json.Unmarshal(payload, &req)
			offered <- req.Wire
			reply, _ := json.Marshal(OpenReply{SessionID: 1, Wire: ver})
			WriteFrame(sconn, FrameOpenOK, reply)
		}()
		c := NewClient(cconn)
		_, err := c.Open(core.DefaultConfig())
		c.Close()
		if got := <-offered; got != WireV4 {
			t.Errorf("client offered wire version %d, want %d", got, WireV4)
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wire version %d", ver)) ||
			!strings.Contains(err.Error(), "only version 4") {
			t.Errorf("reply with wire %d: err = %v, want a rejection naming both versions", ver, err)
		}
	}
}
