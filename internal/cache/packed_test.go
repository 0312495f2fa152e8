package cache

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/stats"
)

// refLRU is a deliberately naive move-to-front LRU used as the behavioural
// reference for the packed implementation: a slice of tag lists, most
// recently used first — the layout the packed cache replaced.
type refLRU struct {
	sets      [][]uint64
	assoc     int
	setMask   uint64
	blockBits uint
	setShift  uint
	stats     Stats
}

func newRefLRU(cfg Config) *refLRU {
	nsets := cfg.Sets()
	r := &refLRU{
		sets:    make([][]uint64, nsets),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
	}
	for {
		if 1<<r.blockBits == cfg.BlockBytes {
			break
		}
		r.blockBits++
	}
	for {
		if 1<<r.setShift == nsets {
			break
		}
		r.setShift++
	}
	return r
}

func (r *refLRU) Access(addr uint64) bool {
	block := addr >> r.blockBits
	si := block & r.setMask
	tag := block >> r.setShift
	set := r.sets[si]
	r.stats.Accesses++
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			r.stats.Hits++
			return true
		}
	}
	r.stats.Misses++
	if len(set) < r.assoc {
		set = append(set, 0)
	} else {
		r.stats.Evictions++
	}
	copy(set[1:], set)
	set[0] = tag
	r.sets[si] = set
	return false
}

func (r *refLRU) Probe(addr uint64) bool {
	block := addr >> r.blockBits
	for _, t := range r.sets[block&r.setMask] {
		if t == block>>r.setShift {
			return true
		}
	}
	return false
}

// TestPackedMatchesReference drives the packed cache and the reference LRU
// with identical random traces and demands identical hit/miss sequences,
// statistics and residency — across the order-word layout (4 and 16 ways)
// and the move-to-front layout (2 and 32 ways).
func TestPackedMatchesReference(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 4 * 1024, Assoc: 4, BlockBytes: 64},
		{SizeBytes: 16 * 1024, Assoc: 16, BlockBytes: 64},
		{SizeBytes: 32 * 1024, Assoc: 32, BlockBytes: 64},
	}
	for _, cfg := range geoms {
		c := mustCache(t, cfg)
		ref := newRefLRU(cfg)
		r := stats.NewRand(uint64(cfg.Assoc))
		// Heavy set pressure: a footprint a few times the capacity.
		span := uint64(4 * cfg.SizeBytes / cfg.BlockBytes)
		for i := 0; i < 20000; i++ {
			addr := r.Uint64() % span * uint64(cfg.BlockBytes)
			if got, want := c.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("assoc %d: access %d of %#x: packed %v, reference %v",
					cfg.Assoc, i, addr, got, want)
			}
		}
		if c.Stats() != ref.stats {
			t.Errorf("assoc %d: stats %+v, reference %+v", cfg.Assoc, c.Stats(), ref.stats)
		}
		for b := uint64(0); b < span; b++ {
			addr := b * uint64(cfg.BlockBytes)
			if got, want := c.Probe(addr), ref.Probe(addr); got != want {
				t.Errorf("assoc %d: probe %#x: packed %v, reference %v", cfg.Assoc, addr, got, want)
			}
		}
	}
}

// TestPrefetchMarksSurviveRotation exercises the packed per-way prefetch
// marks: a mark must follow its line through LRU reordering and evictions,
// in both the order-word and wide layouts.
func TestPrefetchMarksSurviveRotation(t *testing.T) {
	for _, assoc := range []int{4, 32} {
		cfg := Config{SizeBytes: assoc * 64, Assoc: assoc, BlockBytes: 64} // one set
		c := mustCache(t, cfg)
		stride := uint64(64)
		// Fill way 0 by demand, then prefetch two lines.
		c.Access(0)
		if !c.Fill(1 * stride) {
			t.Fatalf("assoc %d: fill of absent line reported no fill", assoc)
		}
		if c.Fill(1 * stride) {
			t.Errorf("assoc %d: refill of resident line reported a fill", assoc)
		}
		c.Fill(2 * stride)
		if !c.wasPrefetched(1*stride) || !c.wasPrefetched(2*stride) {
			t.Fatalf("assoc %d: prefetch marks missing after fills", assoc)
		}
		if c.wasPrefetched(0) {
			t.Errorf("assoc %d: demand line carries a prefetch mark", assoc)
		}
		// Rotate the set: demand hits must not disturb other lines' marks.
		c.Access(0)
		c.Access(1 * stride)
		if !c.wasPrefetched(2 * stride) {
			t.Errorf("assoc %d: mark lost on unrelated hit", assoc)
		}
		c.clearPrefetched(1 * stride)
		if c.wasPrefetched(1 * stride) {
			t.Errorf("assoc %d: mark survived clearPrefetched", assoc)
		}
		// Evict everything: marks must go with their lines.
		for b := uint64(10); b < uint64(10+assoc); b++ {
			c.Access(b * stride)
		}
		if c.wasPrefetched(2 * stride) {
			t.Errorf("assoc %d: mark survived eviction", assoc)
		}
	}
}

// TestPrefetcherRejectsWideAssoc pins the packed-mark constraint: one bit
// per way in a uint64 caps prefetchable associativity at 64.
func TestPrefetcherRejectsWideAssoc(t *testing.T) {
	inner := mustCache(t, Config{SizeBytes: 128 * 64, Assoc: 128, BlockBytes: 64})
	if _, err := NewStreamPrefetcher(inner, 2, 8); err == nil {
		t.Error("prefetcher accepted a 128-way inner cache")
	}
	ok := mustCache(t, Config{SizeBytes: 64 * 64, Assoc: 64, BlockBytes: 64})
	if _, err := NewStreamPrefetcher(ok, 2, 8); err != nil {
		t.Errorf("prefetcher rejected a 64-way inner cache: %v", err)
	}
}

// TestAccessHitPathAllocs pins the zero-allocation contract of the demand
// path for both layouts.
func TestAccessHitPathAllocs(t *testing.T) {
	for _, assoc := range []int{16, 32} {
		c := mustCache(t, Config{SizeBytes: assoc * 64 * 8, Assoc: assoc, BlockBytes: 64})
		c.Access(0x40)
		if n := testing.AllocsPerRun(100, func() { c.Access(0x40) }); n != 0 {
			t.Errorf("assoc %d: Access hit path allocates %v times, want 0", assoc, n)
		}
	}
}

// BenchmarkCacheHit isolates the hit path: repeated accesses to a resident
// working set under the Table I L2 geometry.
func BenchmarkCacheHit(b *testing.B) {
	c, err := New(TableIL2PerCore())
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 1024)
	r := stats.NewRand(1)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<18)) &^ 63 // 4096 blocks: resident after one pass
	}
	for _, a := range addrs {
		c.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}
