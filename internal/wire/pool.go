package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Frame payload buffer pool. Payloads are short-lived — read, decoded,
// discarded — which is exactly the lifetime sync.Pool serves; pooling
// them removes the per-frame allocation from the ingest hot path.
// Buffers come in four size classes so a 40-byte control frame does not
// pin a megabyte, and the pools store fixed-size array pointers rather
// than slices, so neither Get nor Put boxes a slice header: both
// directions are allocation-free.
//
// maxPooledPayload doubles as the single-read bound: ReadFramePooled
// allocates a frame's claimed size up front only within it, so a lying
// length prefix costs at most 4 MiB before the stream's bytes have to
// actually arrive (legitimate batch frames are a few hundred KiB).

const (
	payloadClass0 = 4 << 10
	payloadClass1 = 64 << 10
	payloadClass2 = 1 << 20
	payloadClass3 = 4 << 20

	// maxPooledPayload is the largest payload served from the pool.
	maxPooledPayload = payloadClass3
)

var (
	payloadPool0 = sync.Pool{New: func() any { poolMisses.Add(1); return new([payloadClass0]byte) }}
	payloadPool1 = sync.Pool{New: func() any { poolMisses.Add(1); return new([payloadClass1]byte) }}
	payloadPool2 = sync.Pool{New: func() any { poolMisses.Add(1); return new([payloadClass2]byte) }}
	payloadPool3 = sync.Pool{New: func() any { poolMisses.Add(1); return new([payloadClass3]byte) }}

	poolGets   atomic.Uint64 // pooled payloads handed out
	poolMisses atomic.Uint64 // gets that had to allocate a fresh buffer
)

// GetPayload returns a length-n payload buffer. Buffers up to
// maxPooledPayload come from the size-classed pool and must be returned
// with PutPayload once nothing references their contents; larger
// requests fall back to a plain allocation that PutPayload ignores.
func GetPayload(n int) []byte {
	poolGets.Add(1)
	switch {
	case n <= payloadClass0:
		return payloadPool0.Get().(*[payloadClass0]byte)[:n]
	case n <= payloadClass1:
		return payloadPool1.Get().(*[payloadClass1]byte)[:n]
	case n <= payloadClass2:
		return payloadPool2.Get().(*[payloadClass2]byte)[:n]
	case n <= payloadClass3:
		return payloadPool3.Get().(*[payloadClass3]byte)[:n]
	default:
		poolMisses.Add(1)
		return make([]byte, n)
	}
}

// PutPayload returns a GetPayload buffer to its size class. Buffers
// whose capacity matches no class — including every payload the
// non-pooled ReadFrame allocates — are left to the garbage collector,
// so releasing unconditionally is always safe. Nil is a no-op.
func PutPayload(buf []byte) {
	switch cap(buf) {
	case payloadClass0:
		payloadPool0.Put((*[payloadClass0]byte)(buf[:payloadClass0]))
	case payloadClass1:
		payloadPool1.Put((*[payloadClass1]byte)(buf[:payloadClass1]))
	case payloadClass2:
		payloadPool2.Put((*[payloadClass2]byte)(buf[:payloadClass2]))
	case payloadClass3:
		payloadPool3.Put((*[payloadClass3]byte)(buf[:payloadClass3]))
	}
}

// PoolStats reports how many payload buffers have been handed out and
// how many of those had to allocate (a pool miss). The hit rate
// 1 - misses/gets is exported by rdxd's /metrics as pool_hit_rate.
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// Columnar scratch pool. A session decodes every batch into one
// Columns value; pooling them lets sessions come and go without paying
// the three column allocations per session, the per-session analogue of
// the payload pool. Get counts feed the same hit-rate metric.
var columnsPool = sync.Pool{New: func() any { poolMisses.Add(1); return new(trace.Columns) }}

// GetColumns returns an empty Columns scratch whose columns retain the
// capacity they grew to in earlier use. Return it with PutColumns.
func GetColumns() *trace.Columns {
	poolGets.Add(1)
	c := columnsPool.Get().(*trace.Columns)
	c.Reset()
	return c
}

// PutColumns returns a Columns scratch to the pool once nothing
// references its columns. Nil is a no-op.
func PutColumns(c *trace.Columns) {
	if c != nil {
		columnsPool.Put(c)
	}
}
