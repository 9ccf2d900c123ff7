package wire

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/trace"
)

// Hooks for the external tests.

const (
	DefaultSyncEvery = defaultSyncEvery
	MaxPooledPayload = maxPooledPayload
)

var ClientFloor = clientFloor

func EncodeReserve(n int) int { return encodeReserve(n) }

// ListStat is one buffer list's state: the items it holds, the bytes
// they keep allocated, and its limit.
type ListStat struct{ Items, Bytes, Limit int }

func stat[T any](l *freelist.List[T], size func(T) int) ListStat {
	n, b := l.Retained(size)
	return ListStat{Items: n, Bytes: b, Limit: l.Limit()}
}

// BufferLists reports every buffer list of the package by name.
func BufferLists() map[string]ListStat {
	m := map[string]ListStat{
		"replay":   stat(replayBufs, func(b []byte) int { return cap(b) }),
		"conn":     stat(connBufs, func(b *connBuffers) int { return b.br.Size() + b.bw.Size() + cap(b.frame) }),
		"encoders": stat(encoders, func(e *encodeScratch) int { return e.cols.Footprint() + cap(e.payload) }),
		"columns":  stat(columnsList, (*trace.Columns).Footprint),
	}
	for i := range payloadLists {
		m[fmt.Sprintf("payload%d", i)] = stat(&payloadLists[i], func(b []byte) int { return cap(b) })
	}
	return m
}

// DrainBufferLists empties every buffer list, keeping its limit, so a
// test starts from what its own sessions return.
func DrainBufferLists() {
	drain(replayBufs)
	drain(connBufs)
	drain(encoders)
	drain(columnsList)
	for i := range payloadLists {
		drain(&payloadLists[i])
	}
}

func drain[T any](l *freelist.List[T]) {
	n := l.Limit()
	l.Shrink(n)
	l.Grow(n)
}
