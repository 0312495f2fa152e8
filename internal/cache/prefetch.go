package cache

import (
	"errors"
	"fmt"
)

// StreamPrefetcher wraps a second-level cache with a sequential stream
// prefetcher: when a demand miss extends an ascending block stream, the next
// Degree blocks are filled ahead of use. PARSEC's streaming kernels
// (streamcluster, vips) are exactly the workloads such prefetchers were
// built for, so the simulator offers it as a substrate option — the paper's
// platform predates aggressive LLC prefetching, which is why it is off by
// default.
type StreamPrefetcher struct {
	inner *Cache
	// Degree is the number of blocks fetched ahead on a detected stream.
	degree int
	// streams is a small table of the most recent miss block addresses,
	// used to detect ascending sequences.
	streams  []uint64
	nextSlot int

	issued uint64
	useful uint64
}

// NewStreamPrefetcher wraps inner with a prefetcher of the given degree and
// stream-table size. The inner cache's associativity must not exceed 64:
// prefetched-line marks are one bit per way in a packed per-set word.
func NewStreamPrefetcher(inner *Cache, degree, tableSize int) (*StreamPrefetcher, error) {
	if inner == nil {
		return nil, errors.New("cache: nil inner cache")
	}
	if inner.assoc > maxPrefWays {
		return nil, fmt.Errorf("cache: prefetched-line marks need assoc ≤ %d, got %d", maxPrefWays, inner.assoc)
	}
	if degree <= 0 {
		return nil, errors.New("cache: non-positive prefetch degree")
	}
	if tableSize <= 0 {
		return nil, errors.New("cache: non-positive stream table")
	}
	return &StreamPrefetcher{
		inner:   inner,
		degree:  degree,
		streams: make([]uint64, tableSize),
	}, nil
}

// Access implements Level2: a demand access that misses checks the stream
// table for the preceding block; on a match the following Degree blocks are
// prefetched.
func (p *StreamPrefetcher) Access(addr uint64) bool {
	block := addr >> p.inner.blockBits
	if p.inner.Access(addr) {
		if p.inner.wasPrefetched(addr) {
			p.useful++
			p.inner.clearPrefetched(addr)
		}
		return true
	}
	// Demand miss: detect an ascending stream (previous block missed
	// recently) and run ahead.
	if p.lookup(block-1) || p.lookup(block-2) {
		for d := 1; d <= p.degree; d++ {
			if p.inner.Fill((block + uint64(d)) << p.inner.blockBits) {
				p.issued++
			}
		}
	}
	p.record(block)
	return false
}

func (p *StreamPrefetcher) lookup(block uint64) bool {
	for _, b := range p.streams {
		if b == block {
			return true
		}
	}
	return false
}

func (p *StreamPrefetcher) record(block uint64) {
	p.streams[p.nextSlot] = block
	p.nextSlot = (p.nextSlot + 1) % len(p.streams)
}

// Stats implements Level2, exposing the inner cache's demand counters.
func (p *StreamPrefetcher) Stats() Stats { return p.inner.Stats() }

// Config exposes the inner geometry (used for latency lookups).
func (p *StreamPrefetcher) Config() Config { return p.inner.Config() }

// Issued returns the number of prefetch fills performed.
func (p *StreamPrefetcher) Issued() uint64 { return p.issued }

// Useful returns the number of demand hits on prefetched lines.
func (p *StreamPrefetcher) Useful() uint64 { return p.useful }

// --- prefetch bookkeeping on Cache -----------------------------------------

// Fill inserts the block containing addr without touching the demand
// counters, marking it as prefetched; it reports whether a fill actually
// happened (false when the block was already resident). The mark lives in
// the set's packed per-way bit word, so Fill requires assoc ≤ 64 (enforced
// by NewStreamPrefetcher).
func (c *Cache) Fill(addr uint64) bool {
	block := addr >> c.blockBits
	set := block & c.setMask
	tag := block >> c.setShift
	base := int(set) * c.assoc
	n := int(c.size[set])
	for _, t := range c.tags[base : base+n] {
		if t == tag {
			return false
		}
	}
	c.prefLive = true
	if c.mtf {
		if n < c.assoc {
			n++
			c.size[set] = int32(n)
		} else {
			// Evicting for a prefetch still counts as an eviction; the
			// evicted line's mark (bit n-1) shifts out below.
			c.stats.Evictions++
		}
		ways := c.tags[base : base+n : base+n]
		copy(ways[1:], ways)
		ways[0] = tag
		c.pref[set] = c.pref[set]<<1&wayMask(n) | 1
		return true
	}
	var way uint64
	if n < c.assoc {
		way = uint64(n)
		c.size[set] = int32(n + 1)
	} else {
		c.stats.Evictions++
		way = c.order[set] >> (4 * uint(n-1)) & 0xf
	}
	c.tags[base+int(way)] = tag
	c.order[set] = c.order[set]<<4 | way
	c.setSig(int(set)*c.sigWords, int(way), tag)
	c.pref[set] |= 1 << way
	return true
}

func (c *Cache) wasPrefetched(addr uint64) bool {
	if !c.prefLive {
		return false
	}
	block := addr >> c.blockBits
	set := block & c.setMask
	if w, ok := c.findWay(set, block>>c.setShift); ok {
		return c.pref[set]>>w&1 == 1
	}
	return false
}

func (c *Cache) clearPrefetched(addr uint64) {
	if !c.prefLive {
		return
	}
	block := addr >> c.blockBits
	set := block & c.setMask
	if w, ok := c.findWay(set, block>>c.setShift); ok {
		c.pref[set] &^= 1 << w
	}
}
