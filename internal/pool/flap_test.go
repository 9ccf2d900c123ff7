package pool_test

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
)

// probeMode drives the fake admin endpoint's behavior.
const (
	modeOK int32 = iota
	modeFail
	modeAlternate // 200, 503, 200, 503, ... per request
)

// fakeAdmin is an admin endpoint whose /healthz behavior is switchable
// at runtime, for exercising the prober's hysteresis.
type fakeAdmin struct {
	addr string
	mode atomic.Int32
	hits atomic.Int64
}

func newFakeAdmin(t *testing.T) *fakeAdmin {
	t.Helper()
	f := &fakeAdmin{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		n := f.hits.Add(1)
		switch f.mode.Load() {
		case modeFail:
			http.Error(w, "down", http.StatusServiceUnavailable)
		case modeAlternate:
			if n%2 == 0 {
				http.Error(w, "flap", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"load":0}`)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return f
}

// waitHealthy polls the pool's healthy count until it reaches want.
func waitHealthy(t *testing.T, p *pool.Pool, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for p.Healthy() != want {
		if time.Now().After(deadline) {
			t.Fatalf("healthy count stuck at %d, want %d", p.Healthy(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestProberHysteresis: health transitions require consecutive
// same-direction probes, so a backend flapping healthy/unhealthy every
// probe round settles into one state instead of oscillating in and out
// of the dispatch set (which would double-dispatch streams onto it and
// churn sessions off it).
func TestProberHysteresis(t *testing.T) {
	admin := newFakeAdmin(t)
	p, err := pool.New([]pool.Backend{{Addr: "127.0.0.1:1", Admin: admin.addr}}, pool.Options{
		HealthEvery:  5 * time.Millisecond,
		ProbeTimeout: time.Second,
		DownAfter:    2,
		UpAfter:      2,
		Logf:         quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Phase 1: perfect alternation. Failures never run DownAfter deep,
	// so the backend must stay healthy through many flap cycles.
	admin.mode.Store(modeAlternate)
	start := admin.hits.Load()
	deadline := time.Now().Add(2 * time.Second)
	for admin.hits.Load()-start < 20 {
		if p.Healthy() != 1 {
			t.Fatal("flapping backend fell out of the dispatch set despite hysteresis")
		}
		if time.Now().After(deadline) {
			t.Fatal("prober stopped probing")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 2: hard down. Two consecutive failures must take it out.
	admin.mode.Store(modeFail)
	waitHealthy(t, p, 0, 2*time.Second)

	// Phase 3: flapping again. One success between failures never makes
	// UpAfter consecutive, so a down backend must stay out.
	admin.mode.Store(modeAlternate)
	start = admin.hits.Load()
	deadline = time.Now().Add(2 * time.Second)
	for admin.hits.Load()-start < 20 {
		if p.Healthy() != 0 {
			t.Fatal("flapping backend was readmitted despite hysteresis")
		}
		if time.Now().After(deadline) {
			t.Fatal("prober stopped probing")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 4: steady recovery. Two consecutive successes readmit it.
	admin.mode.Store(modeOK)
	waitHealthy(t, p, 1, 2*time.Second)
}
