// Package cache implements the set-associative cache models used by
// the simulator: private L1s and the per-core L2 shared between
// hyperthreads that the paper's third covert channel exploits (§IV-C,
// after Xu et al.). Each cache block tracks its owner hardware context,
// which is what lets the conflict-miss tracker label replacements with
// (replacer → victim) pairs.
package cache

import (
	"errors"
	"fmt"
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

func encodeTag(lineAddr uint64, ctx uint8) uint64 { return tagKey(lineAddr)<<8 | uint64(ctx) }

func tagOf(enc uint64) uint64 { return enc >> 8 }

func decodeTag(enc uint64) uint64 { return enc >> 9 }

func ownerOf(enc uint64) uint8 { return uint8(enc) }

// Cache is a single set-associative cache with true-LRU replacement.
// It is not safe for concurrent use; the simulation engine serializes
// all accesses in global time order.
//
// Block metadata lives in one flat array indexed by node =
// set*Ways+way: tags holds each way's packed tag+owner word (one
// cache line of words per 8-way set, so the hit scan touches a single
// array). Recency is an intrusive doubly-linked list per set,
// threaded through flat index arrays: every touch relinks the block
// at the head in O(1), and the eviction victim is the first
// in-partition node from the tail — no per-access timestamp scan and
// no per-access allocation.
type Cache struct {
	cfg       Config
	nsets     int
	lineShift uint
	setMask   uint64
	tags      []uint64 // packed tag+owner words; invalidTag = empty way

	// Per-set LRU lists over global node indexes; -1 terminates.
	// lruHead[s] is set s's most recently used way, lruTail[s] its
	// least recently used.
	lruPrev, lruNext []int32
	lruHead, lruTail []int32

	hits, misses, evictions uint64
}

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
		tags:      make([]uint64, blocks),
		lruPrev:   make([]int32, blocks),
		lruNext:   make([]int32, blocks),
		lruHead:   make([]int32, nsets),
		lruTail:   make([]int32, nsets),
	}
	// Initial list order is way index order; it only matters once all
	// in-partition ways are valid, by which time every way has been
	// relinked by its install.
	for s := 0; s < nsets; s++ {
		base := int32(s * cfg.Ways)
		for w := 0; w < cfg.Ways; w++ {
			n := base + int32(w)
			c.lruPrev[n] = n - 1
			c.lruNext[n] = n + 1
		}
		c.lruPrev[base] = -1
		c.lruNext[base+int32(cfg.Ways)-1] = -1
		c.lruHead[s] = base
		c.lruTail[s] = base + int32(cfg.Ways) - 1
	}
	return c, nil
}

// touch moves way w of set s to the head (MRU end) of the set's
// recency list.
func (c *Cache) touch(set uint64, w int) {
	n := int32(int(set)*c.cfg.Ways + w)
	if c.lruHead[set] == n {
		return
	}
	p, nx := c.lruPrev[n], c.lruNext[n]
	if p >= 0 {
		c.lruNext[p] = nx
	}
	if nx >= 0 {
		c.lruPrev[nx] = p
	}
	if c.lruTail[set] == n {
		c.lruTail[set] = p
	}
	h := c.lruHead[set]
	c.lruPrev[n] = -1
	c.lruNext[n] = h
	c.lruPrev[h] = n
	c.lruHead[set] = n
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

// AccessHit is Access for callers that only consume the hit/miss bit —
// the private-L1 step of every load, where eviction details are
// irrelevant (inclusive-hierarchy invalidations flow from the L2, not
// from L1 replacements). Cache state, LRU order, and counters advance
// exactly as Access would; only the Result construction is skipped.
func (c *Cache) AccessHit(addr uint64, ctx uint8) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	enc := key<<8 | uint64(ctx)
	// One pass finds both the hit way and the first invalid way: L1
	// working sets of the probing channels are built to always miss, so
	// the miss path shouldn't rescan the tags it just read.
	victim := -1
	for i := range ways {
		w := ways[i]
		if tagOf(w) == key {
			ways[i] = enc
			c.touch(set, i)
			c.hits++
			return true
		}
		if w == invalidTag && victim < 0 {
			victim = i
		}
	}
	c.misses++
	if victim < 0 {
		// Unpartitioned access: the tail of the recency list is the
		// victim, the same choice AccessInWays makes with a full range.
		victim = int(c.lruTail[set]) - setBase
		c.evictions++
	}
	ways[victim] = enc
	c.touch(set, victim)
	return false
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
	c.misses++
	// Miss: find an invalid way in range, else the LRU way in range —
	// the first in-partition node walking the recency list from the
	// tail. Every in-partition way is valid on that walk (the invalid
	// scan just failed), and relative list order of valid ways is
	// exactly last-touch order, so the walk lands on the same victim
	// the timestamp scan used to find.
	victim := -1
	for i := lo; i < hi; i++ {
		if ways[i] == invalidTag {
			victim = i
			break
		}
	}
	if victim < 0 {
		for n := c.lruTail[set]; n >= 0; n = c.lruPrev[n] {
			if w := int(n) - setBase; w >= lo && w < hi {
				victim = w
				break
			}
		}
		res.Evicted = true
		res.EvictedLine = decodeTag(ways[victim])
		res.EvictedOwner = ownerOf(ways[victim])
		c.evictions++
	}
	ways[victim] = enc
	c.touch(set, victim)
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
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			c.tags[setBase+i] = invalidTag
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

// Owner returns the owning context of addr's block and whether it is
// resident.
func (c *Cache) Owner(addr uint64) (uint8, bool) {
	lineAddr := addr >> c.lineShift
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			return ownerOf(c.tags[setBase+i]), true
		}
	}
	return 0, false
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nsets }

// NumBlocks returns the total number of blocks.
func (c *Cache) NumBlocks() int { return c.nsets * c.cfg.Ways }

// LineBytes returns the block size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// SetOfAddr returns the set index addr maps to.
func (c *Cache) SetOfAddr(addr uint64) uint32 {
	return uint32((addr >> c.lineShift) & c.setMask)
}

// AddrForSet builds an address that maps to the given set, with `way`
// selecting distinct conflicting line addresses within that set and
// base providing an address-space offset (e.g. a per-process tag).
// It is the inverse of SetOfAddr used by channel and workload code to
// construct eviction sets.
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
