package histogram

import (
	"encoding/json"
	"fmt"
)

// Snapshot is the serializable form of a Histogram, used to save
// profiles to disk and exchange them between tools. Buckets are stored
// sparsely (index/weight pairs) since reuse histograms are mostly empty.
type Snapshot struct {
	// Buckets maps bucket index to weight; only non-zero entries appear.
	Buckets map[int]float64 `json:"buckets"`
	// Cold is the weight of infinite-distance observations.
	Cold float64 `json:"cold,omitempty"`
	// Count is the number of raw observations recorded.
	Count uint64 `json:"count"`
}

// Snapshot extracts the serializable form.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Buckets: make(map[int]float64), Cold: h.cold, Count: h.count}
	for b, w := range h.buckets {
		if w != 0 {
			s.Buckets[b] = w
		}
	}
	return s
}

// FromSnapshot reconstructs a Histogram.
func FromSnapshot(s Snapshot) (*Histogram, error) {
	h := New()
	for b, w := range s.Buckets {
		if b < 0 || b > maxBucket {
			return nil, fmt.Errorf("histogram: bucket index %d outside [0,%d]", b, maxBucket)
		}
		if w < 0 {
			return nil, fmt.Errorf("histogram: negative weight %v in bucket %d", w, b)
		}
		for len(h.buckets) <= b {
			h.buckets = append(h.buckets, 0)
		}
		h.buckets[b] = w
	}
	if s.Cold < 0 {
		return nil, fmt.Errorf("histogram: negative cold weight %v", s.Cold)
	}
	h.cold = s.Cold
	h.count = s.Count
	return h, nil
}

// MarshalJSON implements json.Marshaler via Snapshot.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Snapshot())
}

// UnmarshalJSON implements json.Unmarshaler via Snapshot.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	restored, err := FromSnapshot(s)
	if err != nil {
		return err
	}
	*h = *restored
	return nil
}
