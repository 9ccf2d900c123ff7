package wire_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestBackoffHonorsCancelPromptly: a context canceled during the
// reconnect backoff sleep must abort the wait immediately — a caller
// tearing down a session cannot be held hostage by a long jittered
// delay.
func TestBackoffHonorsCancelPromptly(t *testing.T) {
	// An address that refuses connections: bind, then close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := wire.NewReconnectingClient(addr, core.DefaultConfig(), wire.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   30 * time.Second, // without cancellation the test would sit here
		MaxDelay:    30 * time.Second,
		DialTimeout: time.Second,
		Seed:        1,
	})
	defer rc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rc.Open(ctx)
	waited := time.Since(start)
	if err == nil {
		t.Fatal("open against a dead address succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if waited > 2*time.Second {
		t.Fatalf("cancel during backoff took %v to return, want prompt", waited)
	}
}

// TestSendBatchUnfitAccessIsPermanent: a batch holding an access the
// wire cannot carry fails SendBatch with trace.ErrUnfitAccess at once.
// No reconnect could cure it, so the client must not dial or retry.
func TestSendBatchUnfitAccessIsPermanent(t *testing.T) {
	var dials int
	rc := wire.NewReconnectingClient("127.0.0.1:1", core.DefaultConfig(), wire.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			dials++
			return nil, errors.New("unreachable")
		},
	})
	defer rc.Close()
	batch := []mem.Access{{Addr: 0x1000, Size: 8}, {Addr: 0x2000, Size: 16}}
	if err := rc.SendBatch(context.Background(), batch); !errors.Is(err, trace.ErrUnfitAccess) {
		t.Fatalf("got %v, want ErrUnfitAccess", err)
	}
	if dials != 0 {
		t.Errorf("an unfit batch was retried: %d dials", dials)
	}
}
