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
// track: 16 ways of 4 bits each in one uint64. Wider caches use the
// move-to-front tag layout.
const maxOrderWays = 16

// maxPrefWays is the widest associativity the per-set prefetched-line bit
// word supports (one bit per way).
const maxPrefWays = 64

// Cache is a single set-associative cache with true LRU replacement.
//
// All tags live in one flat array of sets*assoc words, a set's ways at
// set*assoc onwards, in one of two layouts chosen from the geometry at
// construction. Packed (3 to 16 ways): lines stay at fixed way positions
// and recency is tracked per set in a 64-bit order word of 4-bit way
// indices, most recent first, so a hit updates LRU state with a few
// register-width shifts instead of a memmove, and an eviction reads its
// victim from the order word's last nibble. Move-to-front (1 and 2 ways,
// and above 16): a set's tags are kept most recently used first, so the
// victim is the last valid tag and no order word is needed. A two-way set
// is then just its MRU and LRU tags, which AccessBatch updates without a
// branch on the outcome.
//
// It is not safe for concurrent use; each cache belongs to one core's
// hierarchy (or one island's shared L2), stepped by its chip's sampler.
type Cache struct {
	cfg  Config
	tags []uint64 // sets*assoc, indexed set*assoc+way
	// order is the per-set LRU order word: nibble k holds the way index of
	// the k-th most recently used line. Only the first size[s] nibbles are
	// meaningful; higher nibbles may hold stale values. Nil for
	// move-to-front caches.
	order []uint64
	// sigs holds one 8-bit tag signature per way, packed eight ways to a
	// word (sigWords words per set): a lookup SWAR-compares the signatures
	// and only verifies full tags at candidate ways, so most misses never
	// touch the (much larger) tag array. A way's byte is the low byte of
	// its tag below the set's fill count and 0 above it, so Restore
	// rebuilds the words from the tags. Nil for move-to-front caches.
	sigs []uint64
	// pref holds per-set prefetched-line marks: bit w marks way w (packed)
	// or the w-th most recent line (move-to-front). All zero until a
	// prefetcher marks a line (prefLive).
	pref []uint64
	size []int32 // valid ways per set

	setMask   uint64
	setShift  uint // tag shift: block bits consumed by set indexing
	blockBits uint
	assoc     int
	sigWords  int  // signature words per set: (assoc+7)/8
	mtf       bool // move-to-front layout: assoc ≤ 2 or assoc > maxOrderWays
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
		mtf:       cfg.Assoc <= 2 || cfg.Assoc > maxOrderWays,
	}
	c.setShift = uint(bits.TrailingZeros64(c.setMask + 1))
	if !c.mtf {
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
	if c.mtf {
		return c.accessMTF(set, tag)
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
// every simulated chip (Table I), run accessPairs unless a prefetcher has
// marked lines in them (no simulated L1 has one); other geometries call
// Access.
func (c *Cache) AccessBatch(addrs []uint64) []uint64 {
	if c.assoc == 2 && !c.prefLive {
		return c.accessPairs(addrs)
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

// accessPairs is AccessBatch for two-way move-to-front caches without
// prefetch marks, where a set is its MRU tag, its LRU tag and its fill
// count. On a full set no branch depends on the outcome: the referenced
// tag becomes the MRU tag, the old MRU tag becomes the LRU tag unless the
// reference hit it, and a hit is a match with either tag, so each
// reference stores the set's two adjacent words and nothing else. Only a
// set's first two fills take a branch, so after warm-up it is always
// predicted. (A mask form over the packed layout had to store the order
// word, fill count, tag and signature on every reference, and its speed
// swung with the host's load; DESIGN.md §7.)
func (c *Cache) accessPairs(addrs []uint64) []uint64 {
	tags, size := c.tags, c.size
	blockBits, setMask, setShift := c.blockBits, c.setMask, c.setShift
	var hits, fills uint64
	m := 0
	for _, addr := range addrs {
		block := addr >> blockBits
		set := block & setMask
		tag := block >> setShift
		pair := tags[2*set : 2*set+2 : 2*set+2]
		mru, lru := pair[0], pair[1]
		if n := size[set]; n < 2 && (n == 0 || mru != tag) {
			// A fill of an empty way: the MRU tag (or the empty way's 0)
			// moves down one place.
			pair[0], pair[1] = tag, mru
			size[set] = n + 1
			fills++
			addrs[m] = addr
			m++
			continue
		}
		keep := eqMask(mru, tag) // a hit on the MRU tag keeps the LRU tag
		hit := (keep | eqMask(lru, tag)) & 1
		pair[0] = tag
		pair[1] = mru ^ (mru^lru)&keep
		hits += hit
		addrs[m] = addr
		m += int(1 - hit)
	}
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Hits += hits
	c.stats.Misses += uint64(m)
	c.stats.Evictions += uint64(m) - fills // every other miss found the set full
	return addrs[:m]
}

// eqMask returns all ones when a == b and zero otherwise.
func eqMask(a, b uint64) uint64 {
	x := a ^ b
	return (x|-x)>>63 - 1
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

// accessMTF is Access for the move-to-front layout: tags are kept most
// recently used first and rotated in place.
func (c *Cache) accessMTF(set, tag uint64) bool {
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
