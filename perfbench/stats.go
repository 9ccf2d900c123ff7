package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples a reported percentile must have beyond
// it; a p90 therefore needs at least 100 samples.
const minBeyond = 10

// chunkLen is the number of samples in one chunk of a latency series.
const chunkLen = 100

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it. xs is sorted in place.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return xs[i], len(xs) - 1 - i
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sample is one latency, stamped with when it completed.
type sample struct {
	at time.Time
	ms float64
}

// latency summarizes a latency series robustly: the samples are put in
// completion order and cut into chunks of at least chunkLen, and each
// reported percentile is the median over the chunks of that chunk's
// percentile. A burst of CPU stolen from the host inflates the chunks
// it overlaps, not the result. beyond is the fewest samples any chunk
// has beyond its p90.
type latency struct {
	p50, p90 float64
	n        int
	chunks   int
	beyond   int
}

func summarize(xs []sample) latency {
	sort.Slice(xs, func(i, j int) bool { return xs[i].at.Before(xs[j].at) })
	l := latency{n: len(xs), chunks: max(len(xs)/chunkLen, 1), beyond: len(xs)}
	var p50s, p90s []float64
	for c := range l.chunks {
		lo, hi := c*len(xs)/l.chunks, (c+1)*len(xs)/l.chunks
		vals := make([]float64, 0, hi-lo)
		for _, x := range xs[lo:hi] {
			vals = append(vals, x.ms)
		}
		p50, _ := percentile(vals, 50)
		p90, beyond := percentile(vals, 90)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		l.beyond = min(l.beyond, beyond)
	}
	l.p50, l.p90 = median(p50s), median(p90s)
	return l
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window measures what the whole process spent over a stretch of the
// run: wall time, heap bytes and objects allocated, GC and total CPU
// time as the Go runtime accounts them, and user+system CPU time.
type window struct {
	start                time.Time
	allocBytes, mallocs  uint64
	gcCPU, totalCPU      float64
	procCPU              time.Duration
	seconds              float64
	dAllocBytes, dMalloc uint64
	dGCCPU, dTotalCPU    float64
	dProcCPU             time.Duration
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() (allocBytes, mallocs uint64, gcCPU, totalCPU float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startWindow() *window {
	runtime.GC()
	w := &window{procCPU: processCPU()}
	w.allocBytes, w.mallocs, w.gcCPU, w.totalCPU = readRuntime()
	w.start = time.Now()
	return w
}

func (w *window) stop() {
	w.seconds = time.Since(w.start).Seconds()
	w.dProcCPU = processCPU() - w.procCPU
	a, m, g, t := readRuntime()
	w.dAllocBytes, w.dMalloc, w.dGCCPU, w.dTotalCPU = a-w.allocBytes, m-w.mallocs, g-w.gcCPU, t-w.totalCPU
}

// gcFraction is the share of the runtime's CPU time spent in the garbage
// collector over the window.
func (w *window) gcFraction() float64 {
	if w.dTotalCPU <= 0 {
		return 0
	}
	return w.dGCCPU / w.dTotalCPU
}

// sliceLen is the length of the slices a phase's window is cut into to
// measure throughput.
const sliceLen = 500 * time.Millisecond

// rateSampler reads a running count every sliceLen until stopped, so a
// run reports the median of its phase's per-slice rates: a burst of
// noise from outside the process moves one slice, not the result.
type rateSampler struct {
	stop  chan struct{}
	done  chan struct{}
	rates []float64
}

func startSampler(count *atomic.Uint64, until time.Time) *rateSampler {
	r := &rateSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		last, lastAt := count.Load(), time.Now()
		for {
			select {
			case <-r.stop:
				return
			case now := <-t.C:
				if now.After(until.Add(sliceLen / 2)) {
					return
				}
				n := count.Load()
				r.rates = append(r.rates, float64(n-last)/now.Sub(lastAt).Seconds())
				last, lastAt = n, now
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the slice rates, or fallback
// alone when the window held no whole slice.
func (r *rateSampler) finish(fallback float64) []float64 {
	close(r.stop)
	<-r.done
	if len(r.rates) == 0 {
		return []float64{fallback}
	}
	return r.rates
}
