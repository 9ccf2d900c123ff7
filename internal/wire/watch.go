package wire

import (
	"encoding/json"
	"fmt"
)

// WatchRequest is the FrameWatch payload: subscribe the session to
// pushed snapshots.
type WatchRequest struct {
	// EveryBatches is the push cadence: a FrameSnapshotPush after every
	// that many executed batches. 0 cancels the subscription.
	EveryBatches int `json:"every_batches"`
}

// Push is the FrameSnapshotPush payload: one server-initiated live
// snapshot.
type Push struct {
	// Seq is the sequence number of the batch whose execution closed
	// this snapshot — the push covers everything up to and including
	// it. Pushes within a session carry strictly increasing sequence
	// numbers; a client that reconnects mid-stream uses them to drop
	// replayed duplicates.
	Seq uint64 `json:"seq"`
	// Result is the snapshot itself, exactly what a FrameSnapshot poll
	// issued at the same boundary would have returned.
	Result *Result `json:"result"`
}

// Watch subscribes the session to pushed snapshots every everyBatches
// executed batches (0 cancels). The subscription lives on this
// connection: pushes arrive whenever the client reads — interleaved
// ahead of pending replies, where expect delivers them to the OnPush
// callback — or explicitly via ReadPush.
func (c *Client) Watch(everyBatches int) error {
	if err := c.ensureStreaming(); err != nil {
		return err
	}
	if everyBatches < 0 {
		return fmt.Errorf("wire: negative watch cadence %d", everyBatches)
	}
	if err := c.send(FrameWatch, marshalJSON(WatchRequest{EveryBatches: everyBatches})); err != nil {
		return err
	}
	_, err := c.expect(FrameWatchOK)
	return err
}

// OnPush registers the callback expect hands pushed snapshots to when
// they arrive ahead of a pending reply. The callback runs on the
// goroutine driving the client — the same one that would have seen the
// reply — so it needs no locking of its own.
func (c *Client) OnPush(fn func(*Push)) { c.onPush = fn }

// ReadPush blocks until the next FrameSnapshotPush arrives and returns
// it. Used by drivers that pace themselves on the push stream (one
// boundary in flight at a time) instead of draining pushes as a side
// effect of other reads.
func (c *Client) ReadPush() (*Push, error) {
	if err := c.ensureStreaming(); err != nil {
		return nil, err
	}
	payload, err := c.expect(FrameSnapshotPush)
	if err != nil {
		return nil, err
	}
	return decodePush(payload)
}

func decodePush(payload []byte) (*Push, error) {
	var p Push
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("wire: decoding snapshot push: %w", err)
	}
	if p.Result == nil {
		return nil, fmt.Errorf("wire: snapshot push %d without a result", p.Seq)
	}
	return &p, nil
}
