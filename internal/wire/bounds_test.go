package wire_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestBufferListBounds runs resilient sessions against one daemon: a few
// back to back, a burst of concurrent ones held mid-stream, and a few
// more back to back. It states each client-side list's bound:
//
//   - replay copies: the limit is one unacked window (SyncEvery
//     batches) per live client plus ClientFloor windows, and each
//     buffer holds one encoded batch, at most EncodeReserve(batch)
//     bytes;
//   - connection buffers: one set per live client plus ClientFloor,
//     each a 64 KiB reader, a 256 KiB writer and a frame buffer of at
//     most MaxPooledPayload;
//   - encode scratch: one per live client plus ClientFloor, each the
//     columns of one batch (17 bytes per access) and an
//     EncodeReserve(batch) payload, rounded up to whole 8 KiB pages;
//   - column scratch and payload classes: at most their limits, one
//     item per class.
//
// Every list holds at most its limit, within the bytes above, during the
// burst and after it. After the sessions end each list still holds what
// the next session starts from — a whole replay window, one set of
// connection buffers, one encoder's scratch — and after the burst, what
// ClientFloor sessions start from, since a list that keeps nothing
// bounds nothing worth having.
func TestBufferListBounds(t *testing.T) {
	const (
		batch   = 8192
		batches = 48 // a sync at 32, then 16 batches pending at Finish
		burst   = 16
	)
	accs, err := trace.Collect(trace.ZipfAccess(31, 0, 1<<16, 1.0, batch*batches))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 65536
	ctx := context.Background()
	// session streams accs through one resilient client, calling hold,
	// when non-nil, halfway through.
	session := func(hold func()) error {
		rc := wire.NewReconnectingClient(s.Addr(), cfg, wire.RetryPolicy{SyncEvery: wire.DefaultSyncEvery})
		defer rc.Close()
		for i := range batches {
			if err := rc.SendBatch(ctx, accs[i*batch:(i+1)*batch]); err != nil {
				return err
			}
			if i == batches/2 && hold != nil {
				hold()
			}
		}
		_, err := rc.Finish(ctx)
		return err
	}
	perItem := map[string]int{
		"replay":   wire.EncodeReserve(batch),
		"conn":     64<<10 + 256<<10 + wire.MaxPooledPayload,
		"encoders": 17*batch + wire.EncodeReserve(batch) + 8<<10,
		"columns":  17*batch + wire.EncodeReserve(batch) + 8<<10,
		"payload0": 4 << 10,
		"payload1": 64 << 10,
		"payload2": 1 << 20,
		"payload3": 4 << 20,
	}
	check := func(phase string, live int) {
		t.Helper()
		lists := wire.BufferLists()
		limits := map[string]int{
			"replay":   (live + wire.ClientFloor) * wire.DefaultSyncEvery,
			"conn":     live + wire.ClientFloor,
			"encoders": live + wire.ClientFloor,
		}
		for name, st := range lists {
			if want, ok := limits[name]; ok && st.Limit != want {
				t.Errorf("%s: %s list limit %d with %d live clients, want %d", phase, name, st.Limit, live, want)
			}
			if st.Items > st.Limit {
				t.Errorf("%s: %s list holds %d items, limit %d", phase, name, st.Items, st.Limit)
			}
			if bound := st.Items * perItem[name]; st.Bytes > bound {
				t.Errorf("%s: %s list keeps %d bytes in %d items, bound %d", phase, name, st.Bytes, st.Items, bound)
			}
		}
		t.Logf("%s: %v", phase, lists)
	}

	wire.DrainBufferLists()
	for range 3 {
		if err := session(nil); err != nil {
			t.Fatal(err)
		}
	}
	check("back to back", 0)

	var arrived, done sync.WaitGroup
	release := make(chan struct{})
	errs := make([]error, burst)
	for i := range burst {
		arrived.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			held := false
			errs[i] = session(func() { held = true; arrived.Done(); <-release })
			if !held {
				arrived.Done()
			}
		}()
	}
	arrived.Wait()
	check(fmt.Sprintf("%d clients live", burst), burst)
	close(release)
	done.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	check("after the burst", 0)
	for name, st := range wire.BufferLists() {
		if (name == "replay" || name == "conn" || name == "encoders") && st.Items != st.Limit {
			t.Errorf("after the burst the %s list holds %d items, want its floor, %d", name, st.Items, st.Limit)
		}
	}

	for range 3 {
		if err := session(nil); err != nil {
			t.Fatal(err)
		}
	}
	check("back to back again", 0)
	lists := wire.BufferLists()
	for name, want := range map[string]int{"replay": wire.DefaultSyncEvery, "conn": 1, "encoders": 1} {
		if got := lists[name].Items; got < want {
			t.Errorf("after the sessions the %s list holds %d items, want at least %d for the next session", name, got, want)
		}
	}
}
