package cache

import "github.com/cpm-sim/cpm/internal/snapshot"

// L2 kind bytes written by Hierarchy.Snapshot so a restore can verify the
// target hierarchy has the same L2 wiring as the snapshotted one.
const (
	l2KindCache      uint8 = 1
	l2KindBanked     uint8 = 2
	l2KindPrefetcher uint8 = 3
)

// Snapshot appends the cache's complete dynamic state: the tag array (in
// MRU order for move-to-front caches), the per-set LRU order words (none
// for move-to-front caches), per-set fill counts, the prefetch-liveness
// flag, the prefetch bit-words when it is set, and the cumulative
// counters. The SWAR signatures are a function of the tags and fill counts
// and are rebuilt by Restore; prefetch words are all zero until a line is
// marked. Geometry (sets, associativity, block size) is construction-time
// configuration; Restore validates shape against it rather than trusting
// the bytes.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagCache)
	e.U64s(c.tags)
	e.U64s(c.order) // nil for move-to-front caches: encodes as length 0
	e.I32s(c.size)
	e.Bool(c.prefLive)
	if c.prefLive {
		e.U64s(c.pref)
	}
	e.U64(c.stats.Accesses)
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
}

// Restore reads state written by Snapshot straight into a cache of
// identical geometry, rejecting length mismatches and any set state a
// cache cannot reach: a fill count outside [0, assoc], a nonzero tag in a
// way past the fill count, or an LRU order whose first size[s] nibbles are
// not ways 0..size[s]-1 once each (fills take ways in order, so those are
// exactly a set's valid ways). It then rebuilds the signature words from
// the tags. On error the cache may be left partly written.
func (c *Cache) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagCache)
	d.U64sInto(c.tags)
	d.U64sInto(c.order) // nil for move-to-front caches: length 0
	d.I32sInto(c.size)
	prefLive := d.Bool()
	if prefLive {
		d.U64sInto(c.pref)
	} else {
		clear(c.pref)
	}
	var st Stats
	st.Accesses = d.U64()
	st.Hits = d.U64()
	st.Misses = d.U64()
	st.Evictions = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	for s, n := range c.size {
		if n < 0 || int(n) > c.assoc {
			return snapshot.ShapeErrorf("set %d fill count %d outside [0, %d]", s, n, c.assoc)
		}
		base := s * c.assoc
		for w := int(n); w < c.assoc; w++ {
			if c.tags[base+w] != 0 {
				return snapshot.ShapeErrorf("set %d holds tag %#x in empty way %d", s, c.tags[base+w], w)
			}
		}
		if c.mtf {
			continue
		}
		var named uint32 // bit w: way w appears among the first n nibbles
		for k, w := int32(0), c.order[s]; k < n; k, w = k+1, w>>4 {
			named |= 1 << (w & 0xf)
		}
		if named != 1<<n-1 {
			return snapshot.ShapeErrorf("set %d LRU order %#x does not name ways 0..%d once each", s, c.order[s], n-1)
		}
	}
	c.rebuildSigs()
	c.prefLive = prefLive
	c.stats = st
	return nil
}

// rebuildSigs recomputes every set's signature words from its tags: byte w
// is the low byte of way w's tag below the set's fill count and 0 above
// it, as fills leave them. Nothing for move-to-front caches.
func (c *Cache) rebuildSigs() {
	if c.mtf {
		return
	}
	for s, n := range c.size {
		ways := c.tags[s*c.assoc : s*c.assoc+int(n)]
		sigs := c.sigs[s*c.sigWords : (s+1)*c.sigWords]
		for k := range sigs {
			lo := min(8*k, len(ways))
			sigs[k] = sigWord(ways[lo:min(lo+8, len(ways))])
		}
	}
}

// sigWord packs the low bytes of up to eight tags into a signature word,
// the first tag's in the lowest byte.
func sigWord(ways []uint64) uint64 {
	if len(ways) == 8 {
		return ways[0]&0xff | ways[1]&0xff<<8 | ways[2]&0xff<<16 | ways[3]&0xff<<24 |
			ways[4]&0xff<<32 | ways[5]&0xff<<40 | ways[6]&0xff<<48 | ways[7]<<56
	}
	var sig uint64
	for j, t := range ways {
		sig |= t & 0xff << (8 * uint(j))
	}
	return sig
}

// Snapshot appends every bank's state.
func (b *Banked) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagBanked)
	e.Int(len(b.banks))
	for _, bank := range b.banks {
		bank.Snapshot(e)
	}
}

// Restore reads state written by Snapshot into a Banked of the same bank
// count and per-bank geometry.
func (b *Banked) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagBanked)
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(b.banks) {
		return snapshot.ShapeErrorf("%d banks in snapshot, target has %d", n, len(b.banks))
	}
	for _, bank := range b.banks {
		if err := bank.Restore(d); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot appends the prefetcher's stream-detection table and counters
// along with the wrapped cache's state.
func (p *StreamPrefetcher) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagPrefetcher)
	p.inner.Snapshot(e)
	e.U64s(p.streams)
	e.Int(p.nextSlot)
	e.U64(p.issued)
	e.U64(p.useful)
}

// Restore reads state written by Snapshot.
func (p *StreamPrefetcher) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagPrefetcher)
	if err := p.inner.Restore(d); err != nil {
		return err
	}
	d.U64sInto(p.streams)
	nextSlot := d.Int()
	issued := d.U64()
	useful := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if nextSlot < 0 || (len(p.streams) > 0 && nextSlot >= len(p.streams)) {
		return snapshot.ShapeErrorf("prefetch slot cursor %d outside table of %d", nextSlot, len(p.streams))
	}
	p.nextSlot = nextSlot
	p.issued = issued
	p.useful = useful
	return nil
}

// Snapshot appends the hierarchy's L1 state and, when includeL2 is true,
// its L2 state prefixed with a kind byte identifying the L2 wiring.
// Callers with a shared per-island L2 pass includeL2 false for every core
// and snapshot the shared cache once at the island level instead, so the
// shared state is captured exactly once.
func (h *Hierarchy) Snapshot(e *snapshot.Encoder, includeL2 bool) {
	e.Tag(snapshot.TagHierarchy)
	h.L1I.Snapshot(e)
	h.L1D.Snapshot(e)
	e.Bool(includeL2)
	if !includeL2 {
		return
	}
	switch l2 := h.L2.(type) {
	case *Cache:
		e.U8(l2KindCache)
		l2.Snapshot(e)
	case *Banked:
		e.U8(l2KindBanked)
		l2.Snapshot(e)
	case *StreamPrefetcher:
		e.U8(l2KindPrefetcher)
		l2.Snapshot(e)
	default:
		// Unknown Level2 implementations cannot be captured; encode an
		// invalid kind so Restore fails loudly instead of silently
		// dropping state.
		e.U8(0)
	}
}

// Restore reads state written by Snapshot, verifying the L2 wiring kind
// matches the target hierarchy.
func (h *Hierarchy) Restore(d *snapshot.Decoder, includeL2 bool) error {
	d.Tag(snapshot.TagHierarchy)
	if err := h.L1I.Restore(d); err != nil {
		return err
	}
	if err := h.L1D.Restore(d); err != nil {
		return err
	}
	had := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if had != includeL2 {
		return snapshot.ShapeErrorf("snapshot L2 presence %v, restore expects %v", had, includeL2)
	}
	if !includeL2 {
		return nil
	}
	kind := d.U8()
	if err := d.Err(); err != nil {
		return err
	}
	switch l2 := h.L2.(type) {
	case *Cache:
		if kind != l2KindCache {
			return snapshot.ShapeErrorf("snapshot L2 kind %d, target is a private cache", kind)
		}
		return l2.Restore(d)
	case *Banked:
		if kind != l2KindBanked {
			return snapshot.ShapeErrorf("snapshot L2 kind %d, target is a banked cache", kind)
		}
		return l2.Restore(d)
	case *StreamPrefetcher:
		if kind != l2KindPrefetcher {
			return snapshot.ShapeErrorf("snapshot L2 kind %d, target is a prefetching cache", kind)
		}
		return l2.Restore(d)
	default:
		return snapshot.ShapeErrorf("target hierarchy has an unsnapshotable L2 implementation")
	}
}
