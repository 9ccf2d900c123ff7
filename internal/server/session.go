package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/wire"
)

// session is one remote profiling run: a dedicated Profiler+Machine
// pair plus the counters the admin endpoint reports. Execution state is
// touched only by the connection goroutine running the session
// (runSession); the atomics exist so /metrics can observe a live
// session without pausing it.
type session struct {
	id      uint64
	conn    net.Conn
	prof    *core.Profiler
	machine *cpu.Machine

	// Session plumbing, created by handleConn after the handshake.
	// queue carries decoded work from the reader; freeCols recirculates
	// batch scratch back to it; bw is the session's reply writer
	// (single-writer: only runSession touches it after the open reply);
	// done closes when runSession returns.
	queue    chan item
	freeCols chan *trace.Columns
	bw       *bufio.Writer
	done     chan struct{}

	// Fault-tolerance state, owned by runSession.
	token       string // resume token handed to the client at open
	lastApplied uint64 // highest batch sequence number executed
	sinceCkpt   int    // batches executed since the last checkpoint
	completed   bool   // Finish ran; finalResult holds the reply
	finalResult []byte // retained final-result JSON (completed sessions)
	failed      bool   // an error frame went out; handleConn lingers before close

	// migrate delivers migration orders to the session (capacity 1; a
	// duplicate order while one is pending is dropped). runSession acts
	// on it at the next batch boundary, or at once when the session is
	// idle.
	migrate  chan migrateOrder
	migrated bool // session handed off; skip the disconnect checkpoint

	dead       atomic.Bool   // reader saw the connection die
	accesses   atomic.Uint64 // executed so far
	stateBytes atomic.Uint64 // profiler state after the last batch

	// Continuous-profiling state, owned by runSession except for the
	// atomics /metrics reads. winCol is the server-side window
	// collector behind the drift counter and the working-set alert:
	// every snapshot the session serves closes one window in it.
	winCol   *window.Collector
	windowWS atomic.Uint64 // latest window's working-set bytes
	wsAlert  atomic.Bool   // working set exceeded Config.AlertWorkingSetBytes
}

// migrateOrder asks a session's runner to hand the session to one of
// the targets, tried in order.
type migrateOrder struct {
	targets []MigrateTarget
}

type itemKind int

const (
	itemBatch itemKind = iota
	itemSnapshot
	itemSync
	itemFinish
	itemFail
)

// mustJSON marshals a value the server constructed itself; failure is a
// programmer error.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshaling %T: %v", v, err))
	}
	return data
}

// unmarshalStrict decodes one JSON value, rejecting unknown fields so
// client and server protocol versions can't silently disagree, and
// anything but whitespace after the value.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("%d bytes after the JSON value", len(rest))
	}
	return nil
}

// decodeOpenRequest decodes a FrameOpen payload, the first frame a
// client sends, strictly, refusing one over wire.MaxOpenPayload.
func decodeOpenRequest(payload []byte) (wire.OpenRequest, error) {
	var req wire.OpenRequest
	if len(payload) > wire.MaxOpenPayload {
		return req, fmt.Errorf("open request of %d bytes exceeds limit %d", len(payload), wire.MaxOpenPayload)
	}
	err := unmarshalStrict(payload, &req)
	return req, err
}
