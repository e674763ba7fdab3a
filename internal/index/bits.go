// Package index maintains per-field ordered indexes and bitset
// candidate sets over the status database, fed incrementally from
// store.ChangedSince deltas. The wizard's selection planner
// intersects a requirement's range constraints against these indexes
// to evaluate only the handful of servers that can possibly qualify,
// instead of scanning the whole table per request.
package index

import "math/bits"

// Bits is a dense bitset over host ids.
type Bits []uint64

// grow returns b extended to hold at least n bits.
func (b Bits) grow(n int) Bits {
	words := (n + 63) / 64
	for len(b) < words {
		b = append(b, 0)
	}
	return b
}

// Set sets bit i; the set must already be large enough.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i if it is within range.
func (b Bits) Clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Test reports bit i, treating out-of-range as unset.
func (b Bits) Test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// ForEach calls fn for every set bit in ascending order.
func (b Bits) ForEach(fn func(i int)) {
	for w, word := range b {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Next returns the lowest set bit at or above i, or -1 when there is
// none: the cursor form of ForEach, for loops that may stop early.
func (b Bits) Next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> (uint(i) & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}
