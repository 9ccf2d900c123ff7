package wire

import (
	"runtime"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/trace"
)

// Buffer lists. Every buffer a stream keeps from batch to batch lives
// on a bounded free list (internal/freelist), which, unlike a
// sync.Pool, survives garbage collection: a long stream stops
// reallocating its working set after every collection. Each list's
// limit comes from what is live, and a buffer goes back to its list
// only once nothing references it. A client-side list keeps buffers
// for each live holder plus clientFloor more, so that as many clients
// as the process runs at once can end and start again without
// reallocating:
//
//   - A connection reads every frame into its own payload buffer
//     (ReadFrameInto), kept with its bufio pair on connBufs: one set per
//     live Client, plus clientFloor.
//   - A client's encode scratch (columns and payload) is on encoders:
//     one per live encoder, plus clientFloor.
//   - Replay copies are on replayBufs: each live ReconnectingClient
//     reserves its unacked window (replayWindow), plus clientFloor
//     default windows.
//   - GetColumns scratch is on columnsList: one per column scratch
//     handed out and not yet returned, plus clientFloor.
//   - The payload size classes serve ReadFramePooled and GetPayload,
//     which read one frame at a time without a buffer of their own:
//     one buffer per class.
//
// maxPooledPayload doubles as the single-read bound: a frame read
// allocates its claimed size up front only within it, so a lying length
// prefix costs at most 4 MiB before the stream's bytes have to actually
// arrive (legitimate batch frames are a few hundred KiB). It also
// bounds the payload buffer a connection keeps.

const (
	payloadClass0 = 4 << 10
	payloadClass1 = 64 << 10
	payloadClass2 = 1 << 20
	payloadClass3 = 4 << 20

	// maxPooledPayload is the largest payload a buffer list keeps.
	maxPooledPayload = payloadClass3
)

// clientFloor is one holder per CPU the process may use: the
// client-side analogue of the daemon's default Workers.
var clientFloor = runtime.GOMAXPROCS(0)

var (
	payloadClasses = [...]int{payloadClass0, payloadClass1, payloadClass2, payloadClass3}
	payloadLists   = [len(payloadClasses)]freelist.List[[]byte]{}

	poolGets   atomic.Uint64 // frame payloads read into a kept buffer
	poolMisses atomic.Uint64 // of those, reads that had to allocate it
)

func init() {
	for i := range payloadLists {
		payloadLists[i].Grow(1)
	}
}

// GetPayload returns a length-n payload buffer. Buffers up to
// maxPooledPayload come from the size classes and must be returned with
// PutPayload once nothing references their contents; larger requests
// fall back to a plain allocation that PutPayload ignores.
func GetPayload(n int) []byte {
	poolGets.Add(1)
	for i, size := range payloadClasses {
		if n <= size {
			if buf, ok := payloadLists[i].Get(); ok {
				return buf[:n]
			}
			poolMisses.Add(1)
			return make([]byte, n, size)
		}
	}
	poolMisses.Add(1)
	return make([]byte, n)
}

// PutPayload returns a GetPayload buffer to its size class. Buffers
// whose capacity matches no class — including every payload the
// non-pooled ReadFrame allocates — are left to the garbage collector,
// so releasing unconditionally is always safe. Nil is a no-op.
func PutPayload(buf []byte) {
	for i, size := range payloadClasses {
		if cap(buf) == size {
			payloadLists[i].Put(buf[:0])
			return
		}
	}
}

// PoolStats reports how many frame payloads were read into a kept
// buffer (a connection's own, or a size class's) and how many of those
// reads had to allocate the buffer (a miss). The hit rate
// 1 - misses/gets is exported by rdxd's /metrics as pool_hit_rate.
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// acquire takes an item for a holder that keeps it until release,
// raising l's limit by one while the holder is live.
func acquire[T any](l *freelist.List[*T]) *T {
	l.Grow(1)
	if x, ok := l.Get(); ok {
		return x
	}
	return new(T)
}

// release returns a holder's item and lowers l's limit again.
func release[T any](l *freelist.List[*T], x *T) {
	l.Put(x)
	l.Shrink(1)
}

// columnsList holds GetColumns scratch.
var columnsList = freelist.New[*trace.Columns](clientFloor)

// GetColumns returns an empty Columns scratch whose columns retain the
// capacity they grew to in earlier use. Return it with PutColumns.
func GetColumns() *trace.Columns {
	c := acquire(columnsList)
	c.Reset()
	return c
}

// PutColumns returns a Columns scratch once nothing references its
// columns. Nil is a no-op.
func PutColumns(c *trace.Columns) {
	if c != nil {
		release(columnsList, c)
	}
}
