// Package conflict implements CC-Hunter's conflict-miss trackers
// (§V-A, Figure 9).
//
// A conflict miss happens in a set-associative cache when several
// blocks map into the same set and replace each other even though
// capacity remains elsewhere: a fully-associative cache of the same
// capacity with LRU replacement would have kept the block. The paper
// describes two designs:
//
//   - an *ideal* tracker keeping a fully-associative LRU stack of all
//     block addresses (expensive in hardware, exact), and
//   - a *practical* tracker that approximates the stack with four age
//     "generations", per-block generation bits, and one three-hash
//     Bloom filter per generation remembering prematurely evicted tags.
//
// Both are implemented here so the ablation benchmarks can compare
// them.
//
// Observe sits on the simulator's per-access hot path, so both
// trackers use flat, index-addressed storage sized at construction,
// and after construction Observe performs no allocations. The
// practical tracker keeps its generation stamps per cache block,
// indexed by the block the access lands in, next to the packed Bloom
// probe positions of the line the block holds; its four generation
// filters are one bit-sliced bloom.Bank. The ideal tracker's LRU
// stack is an intrusive doubly-linked list over slab indexes, with
// lookups through an open-addressing hash index (linear probing,
// backward-shift deletion). See DESIGN.md §12 for the layouts and the
// equivalence arguments against the map-based builds (the ideal one
// kept in the package tests as IdealReference).
package conflict

import (
	"errors"
	"fmt"

	"cchunter/internal/stats"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("conflict: bad configuration")

// Observation describes one access to the tracked cache, as reported
// by the cache model.
type Observation struct {
	// LineAddr is the full line address of the accessed block.
	LineAddr uint64
	// Set is the set index the block maps to.
	Set uint32
	// Block is the block the line occupies after the access
	// (cache.Result.Block). The practical tracker keys its per-block
	// metadata by it; the ideal tracker ignores it.
	Block uint32
	// Ctx is the accessing hardware context (the replacer on a miss).
	Ctx uint8
	// Hit reports whether the access hit.
	Hit bool
	// Evicted reports whether installing the block displaced a valid
	// block (only meaningful when !Hit).
	Evicted bool
	// EvictedLine is the displaced block's line address.
	EvictedLine uint64
	// EvictedOwner is the displaced block's owning context.
	EvictedOwner uint8
}

// Tracker decides, for every access, whether it is a conflict miss.
type Tracker interface {
	// Observe consumes one access and reports whether it was a
	// conflict miss: the block missed although it was recently enough
	// used that a fully-associative cache would have retained it.
	Observe(o Observation) bool
	// Name identifies the tracker implementation.
	Name() string
	// Reset clears all tracking state.
	Reset()
}

// tablePow2 returns the smallest power of two >= 2*n, the
// open-addressing table size that keeps load factor at or below one
// half for n live entries. Lines home at stats.Mix64(line) & mask:
// line addresses are highly regular (consecutive sets, a handful of
// tags), so the raw value would cluster badly.
func tablePow2(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

// Ideal is the exact tracker: a fully-associative LRU stack of
// capacity equal to the cache's block count. An access is a conflict
// miss when it misses in the real cache but its line address is still
// within the stack (i.e. among the N most recently used distinct
// lines).
//
// The stack is an intrusive doubly-linked list threaded through a
// slab of at most `capacity` entries; membership lookups go through a
// flat open-addressing index. Slab slots are handed out sequentially
// until the stack is full, after which every insertion reuses the
// slot of the entry falling off the bottom, so Observe never
// allocates.
type Ideal struct {
	capacity int

	// Slab: entry i is (lines[i], prev[i], next[i]). prev/next are
	// slab indexes; -1 terminates the list.
	lines []uint64
	prev  []int32
	next  []int32

	// Open-addressing index over the slab: table[h] holds a slab
	// index or -1. Linear probing; deletion backward-shifts the
	// cluster, so there are no tombstones.
	table []int32
	mask  uint64

	head, tail int32 // most / least recently used; -1 when empty
	size       int

	conflicts uint64
}

// NewIdeal returns an ideal tracker for a cache with capacity blocks.
func NewIdeal(capacity int) (*Ideal, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: stack capacity %d must be positive", ErrBadConfig, capacity)
	}
	t := &Ideal{
		capacity: capacity,
		lines:    make([]uint64, capacity),
		prev:     make([]int32, capacity),
		next:     make([]int32, capacity),
		table:    make([]int32, tablePow2(capacity)),
		head:     -1,
		tail:     -1,
	}
	t.mask = uint64(len(t.table) - 1)
	for i := range t.table {
		t.table[i] = -1
	}
	return t, nil
}

// MustNewIdeal is NewIdeal for capacities known to be valid; it panics
// on error.
func MustNewIdeal(capacity int) *Ideal {
	t, err := NewIdeal(capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Tracker.
func (t *Ideal) Name() string { return "ideal-lru-stack" }

// Reset implements Tracker.
func (t *Ideal) Reset() {
	for i := range t.table {
		t.table[i] = -1
	}
	t.head, t.tail, t.size = -1, -1, 0
	t.conflicts = 0
}

// lookup returns the slab index of line, or -1 when it is not in the
// stack.
func (t *Ideal) lookup(line uint64) int32 {
	h := stats.Mix64(line) & t.mask
	for {
		idx := t.table[h]
		if idx < 0 {
			return -1
		}
		if t.lines[idx] == line {
			return idx
		}
		h = (h + 1) & t.mask
	}
}

// Observe implements Tracker.
func (t *Ideal) Observe(o Observation) bool {
	slot := t.lookup(o.LineAddr)
	conflict := !o.Hit && slot >= 0
	if conflict {
		t.conflicts++
	}
	if slot >= 0 {
		t.moveToFront(slot)
	} else {
		t.insertFront(o.LineAddr)
	}
	return conflict
}

// Conflicts returns the number of conflict misses detected.
func (t *Ideal) Conflicts() uint64 { return t.conflicts }

// insertFront pushes a new line onto the top of the stack. At
// capacity, the LRU entry falls off the bottom first and its slab
// slot is reused for the new line.
func (t *Ideal) insertFront(line uint64) {
	var slot int32
	if t.size == t.capacity {
		slot = t.tail
		t.tableDelete(t.lines[slot])
		t.tail = t.prev[slot]
		if t.tail >= 0 {
			t.next[t.tail] = -1
		} else {
			t.head = -1
		}
	} else {
		slot = int32(t.size)
		t.size++
	}
	t.lines[slot] = line
	t.prev[slot] = -1
	t.next[slot] = t.head
	if t.head >= 0 {
		t.prev[t.head] = slot
	}
	t.head = slot
	if t.tail < 0 {
		t.tail = slot
	}
	t.tableInsert(line, slot)
}

// moveToFront relinks an existing entry at the top of the stack.
func (t *Ideal) moveToFront(slot int32) {
	if t.head == slot {
		return
	}
	p, n := t.prev[slot], t.next[slot]
	if p >= 0 {
		t.next[p] = n
	}
	if n >= 0 {
		t.prev[n] = p
	}
	if t.tail == slot {
		t.tail = p
	}
	t.prev[slot] = -1
	t.next[slot] = t.head
	t.prev[t.head] = slot
	t.head = slot
}

// tableInsert records line -> slot in the open-addressing index.
func (t *Ideal) tableInsert(line uint64, slot int32) {
	h := stats.Mix64(line) & t.mask
	for t.table[h] >= 0 {
		h = (h + 1) & t.mask
	}
	t.table[h] = slot
}

// tableDelete removes line from the index, backward-shifting the rest
// of its probe cluster so later lookups never cross a stale hole.
func (t *Ideal) tableDelete(line uint64) {
	pos := stats.Mix64(line) & t.mask
	for {
		idx := t.table[pos]
		if idx >= 0 && t.lines[idx] == line {
			break
		}
		pos = (pos + 1) & t.mask
	}
	// Walk the cluster after the hole; any entry displaced at least as
	// far from its home slot as the hole can move back into it.
	cur := pos
	for {
		cur = (cur + 1) & t.mask
		idx := t.table[cur]
		if idx < 0 {
			break
		}
		home := stats.Mix64(t.lines[idx]) & t.mask
		if (cur-home)&t.mask >= (cur-pos)&t.mask {
			t.table[pos] = idx
			pos = cur
		}
	}
	t.table[pos] = -1
}

// StackSize returns the current number of tracked lines (tests).
func (t *Ideal) StackSize() int { return t.size }
