package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestAdminStalledBodyCutOff: a client that sends headers promising a
// body and then stalls must be cut off by the admin listener's read
// deadline instead of pinning a handler goroutine forever.
func TestAdminStalledBodyCutOff(t *testing.T) {
	s := start(t, server.Config{
		AdminAddr:    "127.0.0.1:0",
		AdminTimeout: 150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", s.AdminAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise a body, never deliver it.
	fmt.Fprintf(conn, "POST /drain HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	if waited := time.Since(start); err != nil || waited > 3*time.Second {
		t.Fatalf("stalled admin request not cut off: err=%v after %v", err, waited)
	}
}

// TestAdminOversizedBodyRejected: control endpoints cap their request
// bodies; a body past the cap is a 4xx, not an unbounded read.
func TestAdminOversizedBodyRejected(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	huge := bytes.Repeat([]byte("x"), 128<<10) // past the 64 KiB control cap
	resp, err := http.Post("http://"+s.AdminAddr()+"/drain", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("oversized /drain body: got %s, want a 4xx rejection", resp.Status)
	}
}

// TestWhatIfBodyCap: a /whatif body one byte over the admin body cap is
// refused with a 400 while it is read, before it is decoded; the same
// request padded to exactly the cap is decoded and answered (404: no
// session has its token).
func TestWhatIfBodyCap(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	const req = `{"token":"nosuch","spec":"l2.size=2x"}`
	post := func(size int) (int, string) {
		t.Helper()
		body := req + strings.Repeat(" ", size-len(req))
		resp, err := http.Post("http://"+s.AdminAddr()+"/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(reply)
	}
	if code, reply := post(server.MaxControlBody + 1); code != http.StatusBadRequest || !strings.Contains(reply, "too large") {
		t.Errorf("body one byte over the cap: got %d %q, want 400 from the bounded read", code, reply)
	}
	if code, reply := post(server.MaxControlBody); code != http.StatusNotFound {
		t.Errorf("body at the cap: got %d %q, want 404 for the unknown token", code, reply)
	}
}

// TestAdminControlEndpointValidation: wrong method, malformed JSON,
// unknown fields, and bad target specs are all crisp 4xx answers.
func TestAdminControlEndpointValidation(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()

	if resp, err := http.Get(base + "/drain"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /drain: got %s, want 405", resp.Status)
		}
	}
	for _, body := range []string{"{not json", `{"unknown_field":1}`, `{"to":["="]}`, `{} {"garbage":`} {
		resp, err := http.Post(base+"/drain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /drain %q: got %s, want 400", body, resp.Status)
		}
	}
}

// TestAdminDrainEndpoint: POST /drain flips the daemon into drain mode
// (healthz 503) and reports the drain state in its reply.
func TestAdminDrainEndpoint(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()

	resp, err := http.Post(base+"/drain", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain: %s: %s", resp.Status, reply)
	}
	if !bytes.Contains(reply, []byte(`"draining":true`)) {
		t.Errorf("drain reply does not report draining: %s", reply)
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: got %s, want 503", hz.Status)
	}
}
