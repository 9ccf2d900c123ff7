package exact

import "math/bits"

// liveSet is the oracle's order-statistics structure. Olken's algorithm
// needs one query — how many distinct blocks were touched after a
// block's previous access — which is the number of live last-use
// timestamps greater than that access's. Every user here numbers those
// timestamps with dense slots that keep their order (the Profiler's
// slots are compacted ranks, a shard's are its local clock, a combine's
// are times within the left window), so the set is a bitmap over slots
// with a Fenwick tree over the bitmap's 64-bit words:
//
//   - insert sets one bit and does one Fenwick add;
//   - removeCountGreater reads the Fenwick prefix through the slot's
//     word, popcounts the word above the slot, then clears the bit and
//     does one Fenwick add.
//
// Both are O(log(slots/64)) with no search and no pointer chasing.
type liveSet struct {
	words []uint64 // bit s%64 of words[s/64] is set iff slot s is live
	fen   []uint64 // Fenwick tree (1-based) over the words' popcounts
	live  uint64   // number of live slots
}

// newLiveSet returns an empty set with room for slots [0, slots).
func newLiveSet(slots uint64) liveSet {
	n := (slots + 63) / 64
	return liveSet{words: make([]uint64, n), fen: make([]uint64, n+1)}
}

// capacity is the number of slots the set can hold.
func (l *liveSet) capacity() uint64 { return uint64(len(l.words)) * 64 }

// stateBytes is the heap the set holds.
func (l *liveSet) stateBytes() uint64 { return liveSetBytes(l.capacity()) }

// liveSetBytes is the heap a live set with room for slots slots holds.
func liveSetBytes(slots uint64) uint64 { return (2*((slots+63)/64) + 1) * 8 }

// mark sets slot s live without updating the Fenwick tree or the count;
// build must run before the next query.
func (l *liveSet) mark(s uint64) { l.words[s/64] |= 1 << (s % 64) }

// build recomputes the Fenwick tree and the live count from the bitmap
// in O(words).
func (l *liveSet) build() {
	clear(l.fen)
	l.live = 0
	for w, word := range l.words {
		c := uint64(bits.OnesCount64(word))
		l.live += c
		i := w + 1
		l.fen[i] += c
		if j := i + i&-i; j < len(l.fen) {
			l.fen[j] += l.fen[i]
		}
	}
}

// insert marks slot s live. s must be dead.
func (l *liveSet) insert(s uint64) {
	l.words[s/64] |= 1 << (s % 64)
	for i := s/64 + 1; i < uint64(len(l.fen)); i += i & -i {
		l.fen[i]++
	}
	l.live++
}

// removeCountGreater marks the live slot s dead and returns the number
// of live slots greater than s.
func (l *liveSet) removeCountGreater(s uint64) uint64 {
	w := s / 64
	word := l.words[w]
	var through uint64 // live slots in words[0..w]
	for i := w + 1; i > 0; i &= i - 1 {
		through += l.fen[i]
	}
	n := l.live - through + uint64(bits.OnesCount64(word>>(s%64)>>1))
	l.words[w] = word &^ (1 << (s % 64))
	for i := w + 1; i < uint64(len(l.fen)); i += i & -i {
		l.fen[i]--
	}
	l.live--
	return n
}

// wordRanks returns, per word, the number of live slots in the words
// before it: with rank, one pass maps every live slot to its rank.
func (l *liveSet) wordRanks() []uint64 {
	ranks := make([]uint64, len(l.words))
	var r uint64
	for w, word := range l.words {
		ranks[w] = r
		r += uint64(bits.OnesCount64(word))
	}
	return ranks
}

// rank returns the number of live slots less than s, given wordRanks.
func (l *liveSet) rank(s uint64, wordRanks []uint64) uint64 {
	w := s / 64
	return wordRanks[w] + uint64(bits.OnesCount64(l.words[w]&(1<<(s%64)-1)))
}

// fillDense makes exactly slots [0, live) live — the set once every
// live slot is renumbered to its rank — with room for at least slots
// slots.
func (l *liveSet) fillDense(slots uint64) {
	n := l.live
	if uint64(len(l.words))*64 < slots {
		*l = newLiveSet(slots)
	} else {
		clear(l.words)
	}
	for w := uint64(0); w < n/64; w++ {
		l.words[w] = ^uint64(0)
	}
	if n%64 != 0 {
		l.words[n/64] = 1<<(n%64) - 1
	}
	l.build()
}
