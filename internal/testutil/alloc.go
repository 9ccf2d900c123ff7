package testutil

import (
	"math"
	"runtime"
)

// AllocBytes returns the heap bytes fn allocates: the smaller of two
// measurements, since an allocation by another goroutine (a fuzzing
// engine's own) can land inside one.
func AllocBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
