package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/histogram"
	"repro/internal/mem"
)

// PairKey identifies a use→reuse pair of code sites: the program counter
// of the sampled (use) access and of the trapping (reuse) access. This
// is RDX's actionable output — it names the two instructions between
// which the measured locality (or lack of it) happens, with no
// instrumentation: the use PC arrives in the PMU sample and the reuse PC
// in the watchpoint trap frame.
type PairKey struct {
	UsePC   mem.Addr
	ReusePC mem.Addr
}

// PairStat aggregates the reuses carried by one use→reuse code pair.
type PairStat struct {
	Pair PairKey
	// Count is the number of observed reuse pairs.
	Count uint64
	// Weight is the total sample weight (each observation weighted by
	// the sampling period and its censoring correction), i.e. the
	// estimated number of program accesses this pair carries.
	Weight float64
	// MeanDistance is the weighted mean reuse distance of the pair's
	// observations (after footprint conversion).
	MeanDistance float64
	// MinTime and MaxTime bound the observed reuse times.
	MinTime, MaxTime uint64
}

// Attribution is the per-code-pair breakdown of a profile, ordered by
// descending weight (the pairs carrying the most accesses first).
type Attribution []PairStat

// maxAttributionDepth bounds how deep an attribution element may nest:
// a PairStat is two objects deep, and the rest is room for fields added
// later.
const maxAttributionDepth = 4

// UnmarshalJSON decodes an attribution array into a slice sized from
// one allocation-free scan of the array, refusing any element that is
// not an object or nests deeper than maxAttributionDepth. The default
// decoder would grow the slice by a 56-byte PairStat for every element,
// even a two-byte "0," that then fails, and appending one element at a
// time allocates about five times the final slice: about 210 heap bytes
// per payload byte for a hostile array of bare numbers. Here an element
// takes at least three bytes ("{},") and one PairStat.
func (a *Attribution) UnmarshalJSON(data []byte) error {
	if bytes.Equal(data, []byte("null")) {
		*a = nil
		return nil
	}
	n, err := countObjects(data)
	if err != nil {
		return err
	}
	out := make([]PairStat, 0, n) // the decoder appends within this capacity
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*a = out
	return nil
}

// countObjects returns the element count of data, a JSON array the
// caller's decoder has already checked for syntax. It refuses an array
// holding anything but objects, or objects nesting deeper than
// maxAttributionDepth.
func countObjects(data []byte) (int, error) {
	if len(data) == 0 || data[0] != '[' {
		return 0, fmt.Errorf("core: attribution %.16q is not an array", data)
	}
	n, depth := 0, 0
	inString, escaped := false, false
	for _, c := range data {
		switch {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			if depth == 1 {
				return 0, fmt.Errorf("core: attribution element %d is not an object", n)
			}
			inString = true
		case c == '{' || c == '[':
			depth++
			if depth == 2 {
				if c != '{' {
					return 0, fmt.Errorf("core: attribution element %d is not an object", n)
				}
				n++
			}
			if depth > maxAttributionDepth+1 {
				return 0, fmt.Errorf("core: attribution element %d nests deeper than %d", n-1, maxAttributionDepth)
			}
		case c == '}' || c == ']':
			depth--
		case depth == 1 && c != ',' && c != ' ' && c != '\t' && c != '\r' && c != '\n':
			return 0, fmt.Errorf("core: attribution element %d is not an object", n)
		}
	}
	return n, nil
}

// TopWeight returns the first n pairs (all if n exceeds the length).
func (a Attribution) TopWeight(n int) Attribution {
	if n > len(a) {
		n = len(a)
	}
	return a[:n]
}

// WorstLocality returns the n pairs with the largest weighted mean
// distance among pairs carrying at least minWeight — the code pairs a
// performance engineer should look at first.
func (a Attribution) WorstLocality(n int, minWeight float64) Attribution {
	filtered := make(Attribution, 0, len(a))
	for _, p := range a {
		if p.Weight >= minWeight {
			filtered = append(filtered, p)
		}
	}
	sort.Slice(filtered, func(i, j int) bool {
		return filtered[i].MeanDistance > filtered[j].MeanDistance
	})
	if n > len(filtered) {
		n = len(filtered)
	}
	return filtered[:n]
}

// buildAttribution aggregates per-observation records into sorted pair
// statistics. times/weights/pcs run parallel; dist converts a reuse time
// to a distance (identity when conversion is off).
func buildAttribution(times []uint64, weights []float64, pcs []PairKey, dist func(uint64) uint64) Attribution {
	type agg struct {
		count            uint64
		weight           float64
		distSum          float64
		minTime, maxTime uint64
	}
	m := make(map[PairKey]*agg)
	for i, t := range times {
		if i >= len(pcs) {
			break
		}
		a := m[pcs[i]]
		if a == nil {
			a = &agg{minTime: t, maxTime: t}
			m[pcs[i]] = a
		}
		w := weights[i]
		a.count++
		a.weight += w
		a.distSum += w * float64(dist(t))
		if t < a.minTime {
			a.minTime = t
		}
		if t > a.maxTime {
			a.maxTime = t
		}
	}
	out := make(Attribution, 0, len(m))
	for k, a := range m {
		ps := PairStat{
			Pair:    k,
			Count:   a.count,
			Weight:  a.weight,
			MinTime: a.minTime,
			MaxTime: a.maxTime,
		}
		if a.weight > 0 {
			ps.MeanDistance = a.distSum / a.weight
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Pair.UsePC < out[j].Pair.UsePC ||
			(out[i].Pair.UsePC == out[j].Pair.UsePC && out[i].Pair.ReusePC < out[j].Pair.ReusePC)
	})
	return out
}

// histogramForPair rebuilds a distance histogram restricted to one code
// pair, for drill-down reporting.
func histogramForPair(times []uint64, weights []float64, pcs []PairKey, key PairKey, period float64, dist func(uint64) uint64) *histogram.Histogram {
	h := histogram.New()
	for i, t := range times {
		if i < len(pcs) && pcs[i] == key {
			h.Add(dist(t), period*weights[i])
		}
	}
	return h
}
