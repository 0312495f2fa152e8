package cache

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/stats"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	return mustCache(t, Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64, LatencyCycles: 1})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 0, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 60},       // not power of two
		{SizeBytes: 1000, Assoc: 2, BlockBytes: 64},       // not divisible
		{SizeBytes: 64 * 2 * 3, Assoc: 2, BlockBytes: 64}, // 3 sets
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 64, LatencyCycles: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if err := TableIL1().Validate(); err != nil {
		t.Errorf("Table I L1 config invalid: %v", err)
	}
	if err := TableIL2PerCore().Validate(); err != nil {
		t.Errorf("Table I L2 config invalid: %v", err)
	}
}

func TestTableIGeometry(t *testing.T) {
	if s := TableIL1().Sets(); s != 128 {
		t.Errorf("L1 sets = %d, want 128 (16KB/2-way/64B)", s)
	}
	if s := TableIL2PerCore().Sets(); s != 512 {
		t.Errorf("L2 sets = %d, want 512 (512KB/16-way/64B)", s)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	// Same block, different byte offset.
	if !c.Access(0x103F) {
		t.Error("same-block access should hit")
	}
	if c.Access(0x1040) {
		t.Error("adjacent block should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache; three blocks mapping to the same set evict in LRU order.
	c := small(t) // 8 sets, so stride of 8*64 = 512 bytes conflicts
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("a should survive (was MRU)")
	}
	if c.Probe(b) {
		t.Error("b should have been evicted (was LRU)")
	}
	if !c.Probe(d) {
		t.Error("d should be resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Access(0)
	c.Access(512) // same set, 0 is LRU
	before := c.Stats()
	if !c.Probe(0) {
		t.Fatal("probe should find resident block")
	}
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
	// Probe must not refresh LRU: accessing a third conflicting block still
	// evicts block 0.
	c.Access(1024)
	if c.Probe(0) {
		t.Error("Probe refreshed LRU state")
	}
}

func TestOccupancy(t *testing.T) {
	c := small(t)
	if c.Occupancy() != 0 {
		t.Errorf("new cache occupancy = %d, want 0", c.Occupancy())
	}
	for i := uint64(0); i < 10; i++ {
		c.Access(i * 64)
	}
	if c.Occupancy() != 10 {
		t.Errorf("occupancy = %d, want 10", c.Occupancy())
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set smaller than capacity touched round-robin has only cold
	// misses under LRU.
	c := mustCache(t, Config{SizeBytes: 4096, Assoc: 4, BlockBytes: 64, LatencyCycles: 1})
	blocks := 4096 / 64
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < blocks; i++ {
			c.Access(uint64(i * 64))
		}
	}
	s := c.Stats()
	if s.Misses != uint64(blocks) {
		t.Errorf("misses = %d, want %d (cold only)", s.Misses, blocks)
	}
}

func TestMissRate(t *testing.T) {
	// Regression: zero-access stats must not read as a perfect cache. The
	// documented sentinel is NaN, which any consumer folding the rate into a
	// model has to handle explicitly.
	var s Stats
	if !math.IsNaN(s.MissRate()) {
		t.Errorf("empty MissRate = %v, want NaN sentinel", s.MissRate())
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	s = Stats{Accesses: 5, Hits: 5}
	if s.MissRate() != 0 {
		t.Errorf("all-hit MissRate = %v, want 0", s.MissRate())
	}
}

// Property (LRU inclusion): with the same set count, a higher-associativity
// LRU cache hits on a superset of accesses — hit count is monotone in
// associativity for any access trace.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		sets := 16
		block := 64
		c2, _ := New(Config{SizeBytes: sets * 2 * block, Assoc: 2, BlockBytes: block})
		c4, _ := New(Config{SizeBytes: sets * 4 * block, Assoc: 4, BlockBytes: block})
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(256)) * uint64(block) // heavy set pressure
			h2 := c2.Access(addr)
			h4 := c4.Access(addr)
			if h2 && !h4 {
				return false // violates inclusion
			}
		}
		return c4.Stats().Hits >= c2.Stats().Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: counters are always consistent — hits + misses = accesses, and
// occupancy never exceeds capacity.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		c, _ := New(Config{SizeBytes: 2048, Assoc: 2, BlockBytes: 64})
		for i := 0; i < 1000; i++ {
			c.Access(uint64(r.Intn(10000)) * 8)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && c.Occupancy() <= 2048/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
