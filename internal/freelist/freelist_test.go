package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListKeepsAcrossGC: what a list holds survives garbage collection,
// the property a sync.Pool lacks.
func TestListKeepsAcrossGC(t *testing.T) {
	l := New[*[64]byte](2)
	a := new([64]byte)
	a[0] = 7
	if !l.Put(a) {
		t.Fatal("Put under the limit dropped the item")
	}
	runtime.GC()
	runtime.GC()
	got, ok := l.Get()
	if !ok || got != a || got[0] != 7 {
		t.Fatalf("after two collections Get = %p, %v; want the item put", got, ok)
	}
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported an item")
	}
}

// TestListBound: a list never holds more than its limit; Grow and
// Shrink move the limit, and Shrink drops the surplus; a zero limit
// keeps nothing.
func TestListBound(t *testing.T) {
	var l List[int]
	if l.Put(1) {
		t.Fatal("a zero-limit list kept an item")
	}
	l.Grow(3)
	for i := range 5 {
		l.Put(i)
	}
	if n, _ := l.Retained(func(int) int { return 0 }); n != 3 {
		t.Fatalf("list of limit 3 holds %d items", n)
	}
	l.Shrink(2)
	n, sum := l.Retained(func(x int) int { return x + 1 })
	if n != 1 || sum != 1 || l.Limit() != 1 {
		t.Fatalf("after Shrink(2): %d items summing %d, limit %d; want 1, 1, 1", n, sum, l.Limit())
	}
	if x, ok := l.Get(); !ok || x != 0 {
		t.Fatalf("Get = %d, %v; want the oldest item kept, 0", x, ok)
	}
	l.Shrink(5)
	if l.Limit() != 0 {
		t.Fatalf("limit %d after shrinking past zero", l.Limit())
	}
}

// TestListGetPutAllocFree: at steady state a Get/Put cycle allocates
// nothing.
func TestListGetPutAllocFree(t *testing.T) {
	l := New[[]byte](1)
	l.Put(make([]byte, 128))
	allocs := testing.AllocsPerRun(100, func() {
		b, _ := l.Get()
		l.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put allocates %.1f times", allocs)
	}
}

// TestListConcurrent: holders on several goroutines raise the limit,
// take and return an item and lower the limit again; once every holder
// has ended, the limit is back at its floor and the list holds at most
// that many items, at least the one a holder returned last.
func TestListConcurrent(t *testing.T) {
	const floor, holders, rounds = 2, 8, 500
	l := New[*int](floor)
	var wg sync.WaitGroup
	for range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				l.Grow(1)
				x, ok := l.Get()
				if !ok {
					x = new(int)
				}
				*x++
				l.Put(x)
				l.Shrink(1)
			}
		}()
	}
	wg.Wait()
	if n, _ := l.Retained(func(*int) int { return 0 }); n < 1 || n > floor || l.Limit() != floor {
		t.Fatalf("after every holder ended: %d items, limit %d; want 1 to %d items, limit %d", n, l.Limit(), floor, floor)
	}
}
