// Package cache implements the set-associative cache models used by
// the simulator: private L1s and the per-core L2 shared between
// hyperthreads that the paper's third covert channel exploits (§IV-C,
// after Xu et al.). Each cache block tracks its owner hardware context,
// which is what lets the conflict-miss tracker label replacements with
// (replacer → victim) pairs.
//
// Replacement is true LRU kept the way hardware keeps it, in per-set
// metadata next to the tags: a packed recency stack of 4-bit way
// numbers per set, so associativity is capped at MaxWays (16). See
// DESIGN.md §12.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("cache: bad configuration")

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size; must be a power of two.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in cycles when the block is
	// resident at this level.
	HitLatency uint64
}

// DefaultL1 models the paper's private 32 KB L1 (8-way, 64 B lines).
func DefaultL1() Config {
	return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4}
}

// DefaultL2 models the paper's 256 KB L2 (8-way, 64 B lines, 512
// sets), shared between the two hyperthreads of a core as on Nehalem.
func DefaultL2() Config {
	return Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitLatency: 12}
}

// Valid blocks store tag and owner packed into one word:
//
//	bits 63..9  line address
//	bit      8  valid (the tag key lineAddr<<1|1 keeps it adjacent)
//	bits  7..0  owning hardware context
//
// An invalid way (word 0) can never match a lookup — the key is odd —
// so the way scan is a shift and a compare per way over one flat
// array, and a hit updates tag and owner with a single store. Line
// addresses are physical addresses shifted right by the line size,
// far below 2^55, so the packing never loses a bit.
const invalidTag = 0

func tagKey(lineAddr uint64) uint64 { return lineAddr<<1 | 1 }

func tagOf(enc uint64) uint64 { return enc >> 8 }

func decodeTag(enc uint64) uint64 { return enc >> 9 }

func ownerOf(enc uint64) uint8 { return uint8(enc) }

// Cache is a single set-associative cache with true-LRU replacement.
// It is not safe for concurrent use; the simulation engine serializes
// all accesses in global time order.
//
// Block metadata lives in one flat array indexed by block =
// set*Ways+way: tags holds each way's packed tag+owner word (one
// cache line of words per 8-way set, so the hit scan touches a single
// array). Recency is a packed stack per set: one word of 4-bit way
// numbers ordered from most to least recently used, the way an LRU
// matrix or stack is kept next to the tags in hardware. A touch finds
// the way's nibble with one SWAR compare and shifts the younger
// nibbles down behind it; the eviction victim is the first
// in-partition way reading the nibbles from the LRU end. No
// per-access timestamp scan and no per-access allocation.
//
// Two checks give the common cases constant work. A hit in the MRU
// way (rank 0, the stack's low nibble) needs no scan and no touch:
// moving the front way to the front leaves the stack as it is. And a
// per-set count of invalid ways tells a miss in a full set without a
// second scan: it evicts the bottom of the stack, and moving that way
// to the front shifts every other rank down one nibble at once.
type Cache struct {
	cfg       Config
	nsets     int
	lineShift uint
	setMask   uint64
	lruNibble uint     // 4*(Ways-1): the bit offset of the LRU nibble
	stackMask uint64   // the Ways low nibbles of a recency stack
	tags      []uint64 // packed tag+owner words; invalidTag = empty way

	// recency[s] is set s's recency stack: nibble i (bits 4i..4i+3)
	// is the way with recency rank i, rank 0 the most recently used.
	// Nibbles at and above Ways stay zero.
	recency []uint64
	// holes[s] is the number of invalid ways in set s.
	holes []uint8

	hits, misses, evictions uint64
}

// MaxWays is the largest associativity a recency stack holds: sixteen
// 4-bit way numbers fill its 64-bit word.
const MaxWays = 16

// nibbleOnes has a 1 in every nibble; nibbleHighs the top bit of
// every nibble.
const (
	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
)

// New builds a cache from cfg, rejecting inconsistent geometries with
// an error wrapping ErrBadConfig. Cache configurations reach here from
// user-settable machine descriptions, so a bad one is input, not a
// programming error.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("%w: line size %d not a power of two", ErrBadConfig, cfg.LineBytes)
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("%w: size %d and ways %d must be positive", ErrBadConfig, cfg.SizeBytes, cfg.Ways)
	}
	if cfg.Ways > MaxWays {
		return nil, fmt.Errorf("%w: %d ways exceed the recency stack's %d", ErrBadConfig, cfg.Ways, MaxWays)
	}
	blocks := cfg.SizeBytes / cfg.LineBytes
	if blocks%cfg.Ways != 0 {
		return nil, fmt.Errorf("%w: capacity %dB not divisible into %d ways of %dB lines",
			ErrBadConfig, cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	}
	nsets := blocks / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("%w: %d sets is not a power of two", ErrBadConfig, nsets)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		nsets:     nsets,
		lineShift: shift,
		setMask:   uint64(nsets - 1),
		lruNibble: 4 * uint(cfg.Ways-1),
		stackMask: ^uint64(0) >> (64 - 4*uint(cfg.Ways)),
		tags:      make([]uint64, blocks),
		recency:   make([]uint64, nsets),
		holes:     make([]uint8, nsets),
	}
	// Initial order is way index order, way 0 most recent; it only
	// matters once all in-partition ways are valid, by which time every
	// way has been moved to the front by its install.
	var initial uint64
	for w := cfg.Ways - 1; w >= 0; w-- {
		initial = initial<<4 | uint64(w)
	}
	for s := range c.recency {
		c.recency[s] = initial
		c.holes[s] = uint8(cfg.Ways)
	}
	return c, nil
}

// touch moves way w of set s to the front (MRU end) of the set's
// recency stack. The way's rank is the lowest nibble of stack^(w in
// every nibble) that is zero, found with the SWAR zero-nibble test;
// the ranks younger than it move down one nibble, and w takes rank 0.
func (c *Cache) touch(set uint64, w int) {
	stack := c.recency[set]
	x := stack ^ uint64(w)*nibbleOnes
	// The lowest flagged nibble is exactly the lowest zero nibble;
	// borrows can only flag nibbles above it.
	rank := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	younger := uint64(1)<<rank - 1
	c.recency[set] = stack&^(younger|0xf<<rank) | (stack&younger)<<4 | uint64(w)
}

// lruWayIn returns the least recently used way of set s inside [lo,
// hi), reading the stack's nibbles from the LRU end.
func (c *Cache) lruWayIn(set uint64, lo, hi int) int {
	stack := c.recency[set]
	for sh := int(c.lruNibble); ; sh -= 4 {
		if w := int(stack>>uint(sh)) & 0xf; w >= lo && w < hi {
			return w
		}
	}
}

// miss counts a miss in set s and picks the way within [lo, hi) that
// the missing line is installed in, moving it to the front of the
// recency stack: the lowest invalid way in range, else the least
// recently used way in range, whose line the caller reads from the
// tags before overwriting it. evicted reports the latter.
//
// A full set missed over its whole range evicts the bottom of the
// stack: the way at rank Ways-1 moves to rank 0 and every other way
// one rank down, which is the stack shifted up one nibble.
func (c *Cache) miss(set uint64, ways []uint64, lo, hi int) (victim int, evicted bool) {
	c.misses++
	if c.holes[set] == 0 && lo == 0 && hi == len(ways) {
		stack := c.recency[set]
		victim = int(stack >> c.lruNibble) // the nibbles above Ways are zero
		c.recency[set] = stack<<4&c.stackMask | uint64(victim)
		c.evictions++
		return victim, true
	}
	victim = -1
	if c.holes[set] > 0 {
		for i := lo; i < hi; i++ {
			if ways[i] == invalidTag {
				victim = i
				break
			}
		}
	}
	if victim >= 0 {
		c.holes[set]--
	} else {
		// Every in-partition way is valid, and the stack order of
		// valid ways is exactly last-touch order, so the walk lands on
		// the same victim a timestamp scan would find.
		victim = c.lruWayIn(set, lo, hi)
		evicted = true
		c.evictions++
	}
	c.touch(set, victim)
	return victim, evicted
}

// MustNew is New for geometries known to be valid (tests, hardcoded
// defaults); it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Result describes the effect of one access.
type Result struct {
	// Hit reports whether the block was resident.
	Hit bool
	// Set is the set index the address maps to.
	Set uint32
	// Block is the block the accessed line occupies after the access
	// (set*Ways+way: the hit way, or the way it was installed in) —
	// the index of the block's metadata, where the practical conflict
	// tracker keeps its generation stamps.
	Block uint32
	// LineAddr is the full line address (addr >> log2(LineBytes)).
	LineAddr uint64
	// Evicted reports whether installing the block displaced a valid
	// block.
	Evicted bool
	// EvictedLine is the displaced block's line address.
	EvictedLine uint64
	// EvictedOwner is the hardware context that owned the displaced
	// block.
	EvictedOwner uint8
}

// Access looks up addr for hardware context ctx, installing the block
// (and evicting the LRU victim) on a miss. The owner of the block is
// updated to ctx on every access, matching the paper's "current owner
// context in the cache block metadata".
func (c *Cache) Access(addr uint64, ctx uint8) (res Result) {
	c.AccessInto(&res, addr, ctx, 0, c.cfg.Ways)
	return res
}

// AccessHit is Access for the private-L1 step of every load, which
// needs no Result: it reports whether the access hit, the block the
// line occupies afterwards (the hit way or the way it was installed
// in, as Result.Block) and whether installing it displaced a valid
// line. The simulator keeps a back-pointer per L1 block to the L2
// block holding the same line, and an eviction here is what tells it
// that the L1 no longer holds the line that pointer names. Cache
// state, LRU order and counters advance exactly as Access would.
func (c *Cache) AccessHit(addr uint64, ctx uint8) (hit bool, block uint32, evicted bool) {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	enc := key<<8 | uint64(ctx)
	if i := int(c.recency[set] & 0xf); tagOf(ways[i]) == key {
		ways[i] = enc
		c.hits++
		return true, uint32(setBase + i), false
	}
	for i := range ways {
		if tagOf(ways[i]) == key {
			ways[i] = enc
			c.touch(set, i)
			c.hits++
			return true, uint32(setBase + i), false
		}
	}
	victim, evicted := c.miss(set, ways, 0, len(ways))
	ways[victim] = enc
	return false, uint32(setBase + victim), evicted
}

// AccessInWays is Access with allocation restricted to ways [lo, hi) —
// the hook used by way-partitioning mitigation (Wang & Lee's
// Partition-Locking idea). Hits are honored in any way (data is data),
// but on a miss the victim is chosen only inside the context's
// partition, so one partition can never evict another's blocks.
func (c *Cache) AccessInWays(addr uint64, ctx uint8, lo, hi int) (res Result) {
	c.AccessInto(&res, addr, ctx, lo, hi)
	return res
}

// AccessInto is AccessInWays writing its Result into the caller-owned
// *res, overwriting every field. It is the simulator's per-access L2
// path: Result is too large for Go to keep in registers, so returning
// it by value would spill and reload it through the stack on every
// access.
func (c *Cache) AccessInto(res *Result, addr uint64, ctx uint8, lo, hi int) {
	if lo < 0 || hi > c.cfg.Ways || lo >= hi {
		panic(fmt.Sprintf("cache: bad way range [%d, %d) of %d", lo, hi, c.cfg.Ways))
	}
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	enc := key<<8 | uint64(ctx)
	*res = Result{Set: uint32(set), LineAddr: lineAddr}
	if i := int(c.recency[set] & 0xf); tagOf(ways[i]) == key {
		ways[i] = enc
		res.Hit = true
		res.Block = uint32(setBase + i)
		c.hits++
		return
	}
	for i := range ways {
		if tagOf(ways[i]) == key {
			ways[i] = enc
			c.touch(set, i)
			res.Hit = true
			res.Block = uint32(setBase + i)
			c.hits++
			return
		}
	}
	victim, evicted := c.miss(set, ways, lo, hi)
	if evicted {
		res.Evicted = true
		res.EvictedLine = decodeTag(ways[victim])
		res.EvictedOwner = ownerOf(ways[victim])
	}
	ways[victim] = enc
	res.Block = uint32(setBase + victim)
}

// InvalidateLine removes the block with the given line address (the
// Result.LineAddr / EvictedLine coordinate space) and reports whether
// it was resident. The simulator uses it for inclusive-hierarchy
// back-invalidation: when the shared L2 evicts a block, every L1 copy
// dies with it, as on real inclusive last-level caches — without this,
// stale private-cache copies would hide exactly the misses the covert
// channel and its detector both live on.
func (c *Cache) InvalidateLine(lineAddr uint64) bool {
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			c.tags[setBase+i] = invalidTag
			c.holes[set]++
			return true
		}
	}
	return false
}

// Contains reports whether addr is resident, without touching LRU
// state. Intended for tests and assertions.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			return true
		}
	}
	return false
}

// LineAt returns the line address block holds (set*Ways+way, the
// Result.Block coordinate) and whether the block is valid. Intended
// for tests and assertions.
func (c *Cache) LineAt(block uint32) (uint64, bool) {
	enc := c.tags[block]
	return decodeTag(enc), enc != invalidTag
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nsets }

// NumBlocks returns the total number of blocks.
func (c *Cache) NumBlocks() int { return c.nsets * c.cfg.Ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// AddrForSet builds an address that maps to the given set, with `way`
// selecting distinct conflicting line addresses within that set and
// base providing an address-space offset (e.g. a per-process tag).
// Channel and workload code use it to construct eviction sets.
func (c *Cache) AddrForSet(set uint32, way int, base uint64) uint64 {
	if int(set) >= c.nsets {
		panic(fmt.Sprintf("cache: set %d out of range (%d sets)", set, c.nsets))
	}
	// Line address layout: [ base | way | set ]: the way bits sit just
	// above the set bits, so different ways collide in the same set
	// while different bases never alias.
	la := (base<<24|uint64(way))*uint64(c.nsets) + uint64(set)
	return la << c.lineShift
}

// Stats reports cumulative cache activity.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
