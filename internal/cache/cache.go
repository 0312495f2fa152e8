// Package cache implements the set-associative cache hierarchy of the CMP
// simulator: private L1 instruction/data caches per core and a shared,
// banked last-level cache, all with true LRU replacement — the configuration
// of Table I of the paper (the role g-cache played in the original Simics
// setup).
//
// The simulator drives caches with sampled synthetic address streams each
// control interval; the resulting miss rates feed the interval-analysis core
// model and, through it, utilization and power.
package cache

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// BlockBytes*Assoc.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// BlockBytes is the line size.
	BlockBytes int
	// LatencyCycles is the access latency in core cycles.
	LatencyCycles int
}

// Validate checks structural constraints.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return errors.New("cache: non-positive geometry parameter")
	}
	if c.LatencyCycles < 0 {
		return errors.New("cache: negative latency")
	}
	if bits.OnesCount(uint(c.BlockBytes)) != 1 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	if c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// Stats accumulates access counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns Misses/Accesses. An interval with no accesses has no
// defined miss rate — returning 0 would make an idle or fully-stalled core
// read as a perfect cache — so the sentinel NaN is returned instead.
// Callers folding the rate into a model must check Accesses (or
// math.IsNaN) first.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return math.NaN()
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// maxOrderWays is the widest associativity the packed LRU order word can
// track: 16 ways of 4 bits each in one uint64. Wider caches fall back to a
// move-to-front tag layout.
const maxOrderWays = 16

// maxPrefWays is the widest associativity the per-set prefetched-line bit
// word supports (one bit per way).
const maxPrefWays = 64

// Cache is a single set-associative cache with true LRU replacement.
//
// Storage is packed: all tags live in one flat array of sets*assoc words
// (indexed set*assoc+way) with lines at fixed way positions, and recency is
// tracked per set in a 64-bit order word of 4-bit way indices, most recent
// first. A hit therefore updates LRU state with a few register-width shifts
// instead of the memmove a move-to-front tag list needs, and an eviction
// reads its victim from the order word's last nibble. Associativities above
// 16 use a move-to-front layout within the same flat array.
//
// It is not safe for concurrent use; each cache belongs to one core's
// hierarchy (or one island's shared L2), stepped by its chip's sampler.
type Cache struct {
	cfg  Config
	tags []uint64 // sets*assoc, indexed set*assoc+way
	// order is the per-set LRU order word: nibble k holds the way index of
	// the k-th most recently used line. Only the first size[s] nibbles are
	// meaningful; higher nibbles may hold stale values. Nil for wide caches.
	order []uint64
	// sigs holds one 8-bit tag signature per way, packed eight ways to a
	// word (sigWords words per set): a lookup SWAR-compares the signatures
	// and only verifies full tags at candidate ways, so most misses never
	// touch the (much larger) tag array. Nil for wide caches.
	sigs []uint64
	pref []uint64 // per-set prefetched-line marks, bit w = way w
	size []int32  // valid ways per set

	setMask   uint64
	setShift  uint // tag shift: block bits consumed by set indexing
	blockBits uint
	assoc     int
	sigWords  int  // signature words per set: (assoc+7)/8
	wide      bool // assoc > maxOrderWays: move-to-front layout
	prefLive  bool // a prefetcher has marked at least one line
	stats     Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, nsets*cfg.Assoc),
		pref:      make([]uint64, nsets),
		size:      make([]int32, nsets),
		setMask:   uint64(nsets - 1),
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		assoc:     cfg.Assoc,
		wide:      cfg.Assoc > maxOrderWays,
	}
	c.setShift = uint(bits.TrailingZeros64(c.setMask + 1))
	if !c.wide {
		c.order = make([]uint64, nsets)
		c.sigWords = (cfg.Assoc + 7) / 8
		c.sigs = make([]uint64, nsets*c.sigWords)
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the block containing addr, updating LRU state and
// counters, and reports whether it hit. On a miss the block is filled,
// evicting the LRU line of its set if needed.
func (c *Cache) Access(addr uint64) bool {
	block := addr >> c.blockBits
	set := block & c.setMask
	tag := block >> c.setShift
	c.stats.Accesses++
	if c.wide {
		return c.accessWide(set, tag)
	}
	base := int(set) * c.assoc
	n := int(c.size[set])
	ord := c.order[set]
	si := int(set) * c.sigWords
	bcast := (tag & 0xff) * sigLo
	// SWAR-match the packed per-way signatures: candidate ways fall out of
	// a branch-free byte compare, and only candidates load the full tag.
	// The zero-byte trick never misses a true match (borrows can only raise
	// spurious flags, rejected by the verify), so most misses finish here
	// without touching the tag array.
	for k := 0; k < c.sigWords; k++ {
		x := c.sigs[si+k] ^ bcast
		for m := (x - sigLo) &^ x & sigHi; m != 0; m &= m - 1 {
			w := k*8 + bits.TrailingZeros64(m)>>3
			if w < n && c.tags[base+w] == tag {
				c.stats.Hits++
				// Locate way w's nibble in the order word with the same
				// zero-find, then move it to the front with shifts. Stale
				// nibbles sit above every valid one, so the lowest flag is
				// the true rank.
				y := ord ^ uint64(w)*sigNib
				p := uint(bits.TrailingZeros64((y-sigNib)&^y&sigNibHi)) &^ 3
				low := ord & (1<<p - 1)
				c.order[set] = ord&^(1<<(p+4)-1) | low<<4 | uint64(w)
				return true
			}
		}
	}
	c.stats.Misses++
	var way uint64
	if n < c.assoc {
		way = uint64(n)
		c.size[set] = int32(n + 1)
	} else {
		c.stats.Evictions++
		way = ord >> (4 * uint(n-1)) & 0xf
		if c.prefLive {
			c.pref[set] &^= 1 << way
		}
	}
	c.tags[base+int(way)] = tag
	c.order[set] = ord<<4 | way
	c.setSig(si, int(way), tag)
	return false
}

// AccessBatch performs Access on every address of addrs, in order, and
// compacts the addresses that missed, in order, to the front of addrs,
// returning that prefix. Cache state and counters end exactly as the
// per-address Access loop leaves them. It is the L1 half of a Hierarchy
// pass, where the misses then go to the L2. Two-way caches, the L1s of
// every simulated chip (Table I), run a loop with the cache's fields in
// locals and no call per reference; other geometries call Access.
func (c *Cache) AccessBatch(addrs []uint64) []uint64 {
	if c.assoc == 2 {
		return c.accessBatch2(addrs)
	}
	m := 0
	for _, a := range addrs {
		if !c.Access(a) {
			addrs[m] = a
			m++
		}
	}
	return addrs[:m]
}

// accessBatch2 is AccessBatch for two-way caches. Both tags are compared
// directly, way 0 first as in Access's scan, and every field changes as
// Access changes it: a hit on the most recently used way, the common case
// along a sequential run, stores nothing; a hit on the other way swaps the
// order word's two nibbles; a miss fills the first empty way or evicts the
// LRU one. Branches, not masks: a mask-selected form must store every
// field on every reference, so consecutive references to one set chain
// through those stores; it beat this loop only on a quiet host, and its
// speed swung with the host's load.
func (c *Cache) accessBatch2(addrs []uint64) []uint64 {
	tags, order, sigs, size, pref := c.tags, c.order, c.sigs, c.size, c.pref
	blockBits, setMask, setShift := c.blockBits, c.setMask, c.setShift
	prefLive := c.prefLive
	var hits, evictions uint64
	m := 0
	for _, addr := range addrs {
		block := addr >> blockBits
		set := block & setMask
		tag := block >> setShift
		ways := tags[2*set : 2*set+2 : 2*set+2]
		n := size[set]
		ord := order[set]
		if n > 0 && ways[0] == tag {
			hits++
			if ord&0xf != 0 {
				order[set] = ord&^0xff | (ord&0xf)<<4
			}
			continue
		}
		if n > 1 && ways[1] == tag {
			hits++
			if ord&0xf != 1 {
				order[set] = ord&^0xff | (ord&0xf)<<4 | 1
			}
			continue
		}
		var way uint64
		if n < 2 {
			way = uint64(n)
			size[set] = n + 1
		} else {
			evictions++
			way = ord >> 4 & 1
			if prefLive {
				pref[set] &^= 1 << way
			}
		}
		ways[way] = tag
		order[set] = ord<<4 | way
		sh := way * 8
		sigs[set] = sigs[set]&^(0xff<<sh) | (tag&0xff)<<sh
		addrs[m] = addr
		m++
	}
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Hits += hits
	c.stats.Misses += uint64(m)
	c.stats.Evictions += evictions
	return addrs[:m]
}

// SWAR constants: byte and nibble lane units and high-bit masks.
const (
	sigLo    = 0x0101010101010101
	sigHi    = 0x8080808080808080
	sigNib   = 0x1111111111111111
	sigNibHi = 0x8888888888888888
)

// setSig stores tag's signature byte for the given way of the set whose
// first signature word is at index si.
func (c *Cache) setSig(si, way int, tag uint64) {
	sh := uint(way&7) * 8
	i := si + way>>3
	c.sigs[i] = c.sigs[i]&^(0xff<<sh) | (tag&0xff)<<sh
}

// accessWide is the Access fallback for associativities the order word
// cannot hold: tags are kept most-recently-used first and rotated in place.
func (c *Cache) accessWide(set, tag uint64) bool {
	base := int(set) * c.assoc
	n := int(c.size[set])
	ways := c.tags[base : base+n : base+n]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			if c.prefLive {
				c.pref[set] = promoteBit(c.pref[set], uint(i))
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	if n < c.assoc {
		n++
		c.size[set] = int32(n)
		ways = c.tags[base : base+n : base+n]
	} else {
		c.stats.Evictions++
	}
	copy(ways[1:], ways)
	ways[0] = tag
	if c.prefLive {
		// The victim's mark (bit n-1) shifts out; the new line enters clean.
		c.pref[set] = c.pref[set] << 1 & wayMask(n)
	}
	return false
}

// promoteBit moves bit i of a per-way bit word to bit 0, shifting bits
// below it up by one — the bit-word analogue of a move-to-front rotation.
func promoteBit(word uint64, i uint) uint64 {
	b := word >> i & 1
	low := word & (1<<i - 1)
	return word&^(1<<(i+1)-1) | low<<1 | b
}

// wayMask returns a mask of the low n way bits (n ≤ 64).
func wayMask(n int) uint64 {
	return 1<<uint(n) - 1 // n == 64 wraps to ^0 via Go's shift semantics
}

// Probe reports whether the block containing addr is present without
// updating LRU state or counters.
func (c *Cache) Probe(addr uint64) bool {
	block := addr >> c.blockBits
	set := block & c.setMask
	_, ok := c.findWay(set, block>>c.setShift)
	return ok
}

// findWay scans the valid ways of set for tag.
func (c *Cache) findWay(set, tag uint64) (uint, bool) {
	base := int(set) * c.assoc
	ways := c.tags[base : base+int(c.size[set])]
	for w, t := range ways {
		if t == tag {
			return uint(w), true
		}
	}
	return 0, false
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, s := range c.size {
		n += int(s)
	}
	return n
}
