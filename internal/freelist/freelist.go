// Package freelist provides the bounded free lists the stream path
// keeps its per-session buffers on. Unlike a sync.Pool, a List keeps
// what it holds across garbage collections, so a long-running stream
// stops reallocating its working set after every collection; unlike an
// unbounded cache, it never holds more items than its limit.
//
// A list's limit comes from what is live, not from a setting: holders
// raise it while they run (Grow) and lower it when they end (Shrink),
// and the owner may start it at a floor, so the list keeps at most what
// its live holders can hand back.
package freelist

import "sync"

// List is a bounded LIFO free list of T, safe for concurrent use. The
// zero value is an empty list with limit 0, which keeps nothing.
type List[T any] struct {
	mu    sync.Mutex
	items []T
	limit int
}

// New returns an empty list whose limit starts at limit.
func New[T any](limit int) *List[T] {
	return &List[T]{limit: limit}
}

// Get takes the most recently returned item, if there is one.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		x, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

// Put returns x to the list, or drops it to the garbage collector when
// the list is at its limit; it reports whether x was kept. The caller
// must hold no other reference to x.
func (l *List[T]) Put(x T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) >= l.limit {
		return false
	}
	l.items = append(l.items, x)
	return true
}

// Grow raises the limit by n: a holder that can return n items is live.
func (l *List[T]) Grow(n int) {
	l.mu.Lock()
	l.limit += n
	l.mu.Unlock()
}

// Shrink lowers the limit by n, dropping the items beyond it: a holder
// that returned its items has ended.
func (l *List[T]) Shrink(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limit = max(l.limit-n, 0)
	if len(l.items) > l.limit {
		clear(l.items[l.limit:])
		l.items = l.items[:l.limit]
	}
}

// Limit returns the current limit.
func (l *List[T]) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Retained returns how many items the list holds and the sum of size
// over them: the memory the list keeps alive.
func (l *List[T]) Retained(size func(T) int) (n, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range l.items {
		bytes += size(x)
	}
	return len(l.items), bytes
}
