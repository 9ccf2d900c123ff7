package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// Live session migration: checkpoint handover between backends.
//
// A draining backend pushes each session's retained
// state to a destination backend with a FrameHandoff — sent as a
// connection's first frame, in place of FrameOpen — and waits for
// FrameHandoffOK, which promises the state is installed as durably as
// the destination stores checkpoints. Only then does the source tell
// the session's client where it went (FrameMoved, or a moved answer to
// a later resume attempt), so a client can never be redirected to a
// backend that does not hold its session.
//
// The handoff payload is binary (checkpoint blobs are large and already
// framed/CRC'd by the transport):
//
//	kind  u8       HandoffLive or HandoffFinal
//	seq   u64      last batch sequence number the state covers
//	tlen  u8       token length in bytes
//	token tlen     session token (the client's resume credential)
//	body  rest     checkpoint blob (live) or final-result JSON (final)

// Handoff state kinds.
const (
	// HandoffLive transfers a resumable mid-stream checkpoint.
	HandoffLive byte = 0
	// HandoffFinal transfers a finished session's retained final result.
	HandoffFinal byte = 1
)

// Moved is the payload of FrameMoved: the session now lives on the
// named backend; the client should resume by token there. Seq is the
// batch sequence number the handed-over state covers — everything up to
// it is executed and durable at the new backend, so the client may trim
// its replay buffer to the batches after it (ack preservation: no batch
// below Seq is ever replayed, let alone executed twice).
type Moved struct {
	Addr  string `json:"addr"`
	Admin string `json:"admin,omitempty"`
	Seq   uint64 `json:"seq"`
}

// MovedError is the error Client surfaces when the server answers with
// FrameMoved: not a fault but a redirect. ReconnectingClient follows it
// transparently; direct Client users re-dial Addr and Resume there.
type MovedError struct {
	Addr  string
	Admin string
	Seq   uint64
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("wire: session moved to %s (state through batch %d)", e.Addr, e.Seq)
}

// handoffFixed is the handoff payload's fixed prefix: kind + seq + tlen.
const handoffFixed = 1 + 8 + 1

// EncodeHandoff appends the handoff payload for one session state to
// dst (which may be nil) and returns the extended slice.
func EncodeHandoff(dst []byte, kind byte, seq uint64, token string, body []byte) ([]byte, error) {
	if kind != HandoffLive && kind != HandoffFinal {
		return dst, fmt.Errorf("wire: unknown handoff kind %d", kind)
	}
	if len(token) == 0 || len(token) > 255 {
		return dst, fmt.Errorf("wire: handoff token length %d outside [1,255]", len(token))
	}
	var hdr [handoffFixed]byte
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:], seq)
	hdr[9] = byte(len(token))
	dst = append(dst, hdr[:]...)
	dst = append(dst, token...)
	return append(dst, body...), nil
}

// DecodeHandoff splits a handoff payload into its parts. The returned
// body aliases payload; callers installing it past the payload's
// lifetime (a connection's frame buffer) must copy it first.
func DecodeHandoff(payload []byte) (kind byte, seq uint64, token string, body []byte, err error) {
	if len(payload) < handoffFixed {
		return 0, 0, "", nil, fmt.Errorf("wire: handoff payload of %d bytes shorter than its %d-byte prefix", len(payload), handoffFixed)
	}
	kind = payload[0]
	if kind != HandoffLive && kind != HandoffFinal {
		return 0, 0, "", nil, fmt.Errorf("wire: unknown handoff kind %d", kind)
	}
	seq = binary.BigEndian.Uint64(payload[1:])
	tlen := int(payload[9])
	if tlen == 0 || len(payload) < handoffFixed+tlen {
		return 0, 0, "", nil, fmt.Errorf("wire: handoff token length %d exceeds payload", tlen)
	}
	token = string(payload[handoffFixed : handoffFixed+tlen])
	return kind, seq, token, payload[handoffFixed+tlen:], nil
}

// PushHandoff dials addr, transfers one session state, and waits for
// the destination's acknowledgment. dial may be nil (plain TCP);
// timeout bounds the whole exchange — a destination that accepted the
// connection but stalls cannot pin the migrating runner. A FrameError
// reply (destination draining, malformed state) comes back as an error;
// the caller keeps the session running locally and may try another
// destination.
func PushHandoff(ctx context.Context, dial func(ctx context.Context, addr string) (net.Conn, error), addr string, kind byte, seq uint64, token string, body []byte, timeout time.Duration) error {
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := dial(dctx, addr)
	if err != nil {
		return fmt.Errorf("wire: handoff dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	payload, err := EncodeHandoff(nil, kind, seq, token, body)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := WriteFrame(bw, FrameHandoff, payload); err != nil {
		return fmt.Errorf("wire: handoff to %s: %w", addr, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wire: handoff to %s: %w", addr, err)
	}
	t, reply, err := ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("wire: handoff to %s: reading reply: %w", addr, err)
	}
	switch t {
	case FrameHandoffOK:
		return nil
	case FrameError:
		return fmt.Errorf("wire: handoff to %s: %w: %s", addr, ErrRemote, reply)
	default:
		return fmt.Errorf("wire: handoff to %s: unexpected %s reply", addr, t)
	}
}
