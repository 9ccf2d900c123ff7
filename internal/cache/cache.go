// Package cache provides (a) a set-associative LRU cache simulator and
// (b) a miss-ratio predictor driven by reuse-distance histograms. The
// pair backs the paper's "usefulness" experiments: a reuse-distance
// histogram — machine-independent — predicts the miss ratio of any LRU
// cache size, and the simulator provides the reference those predictions
// are checked against.
//
// The simulator maintains true LRU order per set with a hash map plus an
// intrusive doubly-linked list, so accesses are O(1) regardless of
// associativity — fully associative multi-megabyte caches simulate at
// the same speed as direct-mapped ones.
package cache

import (
	"fmt"

	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config describes a cache to simulate.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// LineBytes is the block size (power of two).
	LineBytes uint64
	// Ways is the associativity; 0 means fully associative.
	Ways int
}

// Lines returns the capacity in lines.
func (c Config) Lines() uint64 { return c.SizeBytes / c.LineBytes }

// ways returns the effective associativity.
func (c Config) ways() uint64 {
	if c.Ways == 0 {
		return c.Lines()
	}
	return uint64(c.Ways)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", c.LineBytes)
	}
	if c.SizeBytes == 0 || c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: SizeBytes %d not a multiple of LineBytes %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.Lines()
	ways := c.ways()
	if ways > lines || lines%ways != 0 {
		return fmt.Errorf("cache: %d ways does not divide %d lines", ways, lines)
	}
	return nil
}

// node is one resident line in a set's LRU list.
type node struct {
	line       mem.Addr
	prev, next int32 // indices into Cache.nodes; -1 terminates
}

const nilIdx = int32(-1)

// lruSet is the LRU state of one cache set.
type lruSet struct {
	head, tail int32 // MRU and LRU node indices
	size       int
}

// Cache is a set-associative LRU cache simulator with O(1) accesses.
type Cache struct {
	cfg      Config
	resident map[mem.Addr]int32 // line -> node index
	nodes    []node
	free     []int32
	sets     []lruSet
	numSets  uint64
	shift    uint
	ways     int

	accesses uint64
	misses   uint64
}

// New builds a simulator for the given configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ways := int(cfg.ways())
	numSets := cfg.Lines() / cfg.ways()
	shift := uint(0)
	for uint64(1)<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:      cfg,
		resident: make(map[mem.Addr]int32),
		sets:     make([]lruSet, numSets),
		numSets:  numSets,
		shift:    shift,
		ways:     ways,
	}
	for i := range c.sets {
		c.sets[i] = lruSet{head: nilIdx, tail: nilIdx}
	}
	return c, nil
}

func (c *Cache) alloc(line mem.Addr) int32 {
	if n := len(c.free); n > 0 {
		idx := c.free[n-1]
		c.free = c.free[:n-1]
		c.nodes[idx] = node{line: line, prev: nilIdx, next: nilIdx}
		return idx
	}
	c.nodes = append(c.nodes, node{line: line, prev: nilIdx, next: nilIdx})
	return int32(len(c.nodes) - 1)
}

// unlink removes node idx from set s without freeing it.
func (c *Cache) unlink(s *lruSet, idx int32) {
	n := &c.nodes[idx]
	if n.prev != nilIdx {
		c.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nilIdx {
		c.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nilIdx, nilIdx
	s.size--
}

// pushFront makes node idx the MRU of set s.
func (c *Cache) pushFront(s *lruSet, idx int32) {
	n := &c.nodes[idx]
	n.prev, n.next = nilIdx, s.head
	if s.head != nilIdx {
		c.nodes[s.head].prev = idx
	}
	s.head = idx
	if s.tail == nilIdx {
		s.tail = idx
	}
	s.size++
}

// Access simulates one access and reports whether it hit.
func (c *Cache) Access(a mem.Access) bool {
	c.accesses++
	line := a.Addr >> c.shift
	s := &c.sets[uint64(line)%c.numSets]
	if idx, ok := c.resident[line]; ok {
		// Hit: move to MRU.
		c.unlink(s, idx)
		c.pushFront(s, idx)
		return true
	}
	c.misses++
	if s.size >= c.ways {
		// Evict the set's LRU line.
		victim := s.tail
		c.unlink(s, victim)
		delete(c.resident, c.nodes[victim].line)
		c.free = append(c.free, victim)
	}
	idx := c.alloc(line)
	c.pushFront(s, idx)
	c.resident[line] = idx
	return false
}

// Accesses returns the number of simulated accesses.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of misses.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRatio returns misses/accesses.
func (c *Cache) MissRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Simulate drains a trace through a cache and returns the miss ratio.
func Simulate(r trace.Reader, cfg Config) (float64, error) {
	c, err := New(cfg)
	if err != nil {
		return 0, err
	}
	err = trace.ForEach(r, func(a mem.Access) bool {
		c.Access(a)
		return true
	})
	if err != nil {
		return 0, err
	}
	return c.MissRatio(), nil
}

// PredictMissRatio predicts the miss ratio of a fully associative LRU
// cache with `lines` lines from a reuse-distance histogram measured at
// line granularity: an access misses iff its reuse distance is at least
// the cache capacity (or it is cold). This is the classical
// stack-distance identity, exact for fully associative LRU.
func PredictMissRatio(rd *histogram.Histogram, lines uint64) float64 {
	if lines == 0 {
		return 1
	}
	return rd.FractionAbove(lines)
}
