package sim

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/workload"
)

func checkConsistent(t *testing.T, name string, s cache.Stats) {
	t.Helper()
	if s.Accesses == 0 {
		t.Errorf("%s: no accesses recorded after stepping", name)
	}
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("%s: hits %d + misses %d != accesses %d", name, s.Hits, s.Misses, s.Accesses)
	}
}

// TestCacheStatsAggregation checks the chip-level cache accessor: zero
// before any step, internally consistent and monotone after stepping.
func TestCacheStatsAggregation(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 11
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.CacheStats(); s != (CacheStats{}) {
		t.Errorf("fresh chip reports nonzero cache stats: %+v", s)
	}
	for k := 0; k < 5; k++ {
		c.Step()
	}
	first := c.CacheStats()
	checkConsistent(t, "l1i", first.L1I)
	checkConsistent(t, "l1d", first.L1D)
	checkConsistent(t, "l2", first.L2)
	for k := 0; k < 5; k++ {
		c.Step()
	}
	second := c.CacheStats()
	if second.L1D.Accesses < first.L1D.Accesses || second.L2.Accesses < first.L2.Accesses {
		t.Errorf("cumulative stats went backwards: %+v then %+v", first, second)
	}
}

// TestCacheStatsSharedL2Dedupe checks a shared L2 is counted once per
// island: every core of an island sees the same banked L2, so summing all
// cores would overcount its traffic by the cores-per-island factor.
func TestCacheStatsSharedL2Dedupe(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 11
	cfg.SharedL2 = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		c.Step()
	}
	got := c.CacheStats()
	checkConsistent(t, "shared l2", got.L2)

	// Ground truth: one core's view per island.
	var want cache.Stats
	var overcounted cache.Stats
	for _, isl := range c.sampler.islands {
		for j, core := range isl.cores {
			_, _, l2 := core.CacheStats()
			addCacheStats(&overcounted, l2)
			if j == 0 {
				addCacheStats(&want, l2)
			}
		}
	}
	if got.L2 != want {
		t.Errorf("shared L2 stats = %+v, want once-per-island %+v", got.L2, want)
	}
	if got.L2 == overcounted {
		t.Errorf("shared L2 stats equal the per-core overcount %+v — dedupe not applied", overcounted)
	}
}

// TestIslandCacheStatsSumToChip checks the per-island accessor partitions
// the chip-level counters exactly: summing IslandCacheStats over islands
// must reproduce CacheStats, with and without a shared L2.
func TestIslandCacheStatsSumToChip(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := DefaultConfig(workload.Mix1())
		cfg.Seed = 11
		cfg.SharedL2 = shared
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			c.Step()
		}
		var got CacheStats
		for i := 0; i < c.NumIslands(); i++ {
			is := c.IslandCacheStats(i)
			addCacheStats(&got.L1I, is.L1I)
			addCacheStats(&got.L1D, is.L1D)
			addCacheStats(&got.L2, is.L2)
		}
		if want := c.CacheStats(); got != want {
			t.Errorf("sharedL2=%v: Σ island stats %+v != chip stats %+v", shared, got, want)
		}
	}
}

// TestSamplerIslandCacheStatsMatchLiveChip checks a record-driven chip
// reading a shared sampler's per-island view sees what a New chip reads
// from its own sampler after the same intervals — the property that makes
// cache-aware provisioning bit-identical between the scalar and the farm
// paths.
func TestSamplerIslandCacheStatsMatchLiveChip(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 11
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewWithRecords(cfg, sampler)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetCacheStatsSource(sampler.CacheStats)
	rec.SetIslandCacheStatsSource(sampler.IslandCacheStats)
	for k := 0; k < 5; k++ {
		live.Step()
		rec.Step()
	}
	for i := 0; i < live.NumIslands(); i++ {
		if got, want := rec.IslandCacheStats(i), live.IslandCacheStats(i); got != want {
			t.Errorf("island %d: record-driven chip stats %+v != New chip stats %+v", i, got, want)
		}
	}
}
