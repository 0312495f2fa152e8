package sim

import (
	"errors"
	"fmt"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/uarch"
)

// Window is the number of intervals a Sampler retains: each one's record
// batch and the cache counters latched right after it. Chips sharing a
// sampler may therefore be up to Window intervals apart, so a farm group
// steps each member Window intervals at a time (engine.FarmRunner
// RunWindows) and its state stays in the host's caches across the window.
// On a 512-member Mix-1 group (BenchmarkFarmRun512, 2-vCPU VM) windows of
// 8 to 128 intervals ran 1.2–1.4× faster than windows of one, the
// differences between them within the host's noise; 32 retain about 35 KB
// for an 8-core chip.
const Window = 32

// Sampler is the frequency-independent half of a chip: the per-core phase
// machines, address-stream generators and cache hierarchies, advanced one
// interval at a time to produce TraceRecord batches. Because records do
// not depend on the operating point, every chip sharing the sampler's
// workload identity (seed, mix, core and cache configuration — see
// farm.WorkloadKey) can be driven from one Sampler through NewWithRecords,
// paying the expensive sampling work (>95% of a step) once per interval
// instead of once per chip. A New chip owns one; core.Calibrate's
// unmanaged and white-noise chips share one in lockstep; a farm group's
// members share one a window apart.
//
// The sampler is a bounded record log: it retains its last Window
// intervals, each interval's batch with the cumulative chip-wide and
// per-island cache counters latched right after it was sampled, plus the
// counters in force before its first interval (zeros, or a restored
// sampler's). A chip over it (NewWithRecords) reads its cache counters at
// the interval it last stepped.
//
// The memory system, thermal, variation and DVFS parts of cfg are ignored —
// they belong to the compute half.
//
// Not safe for concurrent use; in a farm each sampler group is stepped by
// one worker.
type Sampler struct {
	islands []samplerIsland
	nCores  int
	cursor  int
	// first is the first interval the sampler can serve: 0, or the cursor
	// a Restore set.
	first int
	// recs holds interval k's batch in slot k%Window; stats holds the
	// counters latched right after it, the chip's then each island's.
	recs  []uarch.TraceRecord
	stats []CacheStats
	// base is the counters in force before interval first, laid out as a
	// stats slot.
	base []CacheStats
}

type samplerIsland struct {
	cores  []*uarch.Core
	shared *cache.Banked
	// first is the global ID of the island's first core: the island writes
	// batch entries [first, first+len(cores)) and no others.
	first int
}

// sample writes one interval of the island's records into recs.
func (isl *samplerIsland) sample(recs []uarch.TraceRecord) {
	for j, core := range isl.cores {
		recs[isl.first+j] = core.SampleInterval()
	}
}

// cacheStats aggregates the island's cumulative cache counters: summed
// over its cores, a shared L2 counted once.
func (isl *samplerIsland) cacheStats() CacheStats {
	var out CacheStats
	for j, core := range isl.cores {
		l1i, l1d, l2 := core.CacheStats()
		addCacheStats(&out.L1I, l1i)
		addCacheStats(&out.L1D, l1d)
		if isl.shared == nil || j == 0 {
			addCacheStats(&out.L2, l2)
		}
	}
	return out
}

// NewSampler builds the sampling half of New(cfg).
func NewSampler(cfg Config) (*Sampler, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.L2PrefetchDegree > 0 && cfg.SharedL2 {
		return nil, errors.New("sim: L2 prefetching requires private L2 slices")
	}
	profiles, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	// The per-island core configurations must match the chip's exactly — a
	// class or tech mismatch would change the record stream (pipeline
	// widths shape the CPI floor), so the sampler resolves islands through
	// the same helpers as newChip.
	_, islandModels, classes, err := resolveIslandModels(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sampler{}
	coreID := 0
	for islandID, islandProfiles := range profiles {
		coreCfg, err := islandCoreConfig(cfg, classes[islandID], islandModels[islandID].Table)
		if err != nil {
			return nil, err
		}
		shared, err := islandL2(cfg, len(islandProfiles))
		if err != nil {
			return nil, err
		}
		isl := samplerIsland{shared: shared, first: coreID}
		for _, prof := range islandProfiles {
			h, err := coreHierarchy(cfg, shared)
			if err != nil {
				return nil, err
			}
			core, err := uarch.NewCore(coreID, stats.DeriveSeed(cfg.Seed, uint64(coreID)), coreCfg, prof, h)
			if err != nil {
				return nil, fmt.Errorf("sim: core %d (%s): %w", coreID, prof.Name, err)
			}
			isl.cores = append(isl.cores, core)
			coreID++
		}
		s.islands = append(s.islands, isl)
	}
	per := 1 + len(s.islands)
	s.nCores = coreID
	s.recs = make([]uarch.TraceRecord, Window*coreID)
	s.stats = make([]CacheStats, Window*per)
	s.base = make([]CacheStats, per)
	return s, nil
}

// NumCores returns the core count of the sampled chip.
func (s *Sampler) NumCores() int { return s.nCores }

// Cursor returns the next interval the sampler will generate.
func (s *Sampler) Cursor() int { return s.cursor }

// Records implements RecordSource: asking for the cursor interval samples
// it and advances the cursor; asking for any interval the sampler still
// retains — at most Window back, and not before its first — returns that
// interval's batch. Anything else panics: a chip has fallen further behind
// than the window, or run ahead of the sampler, and continuing would
// silently corrupt its workload stream. The batch stays valid until the
// sampler samples Window intervals further.
func (s *Sampler) Records(k int) []uarch.TraceRecord {
	switch {
	case k == s.cursor:
		recs := s.batch(k)
		for i := range s.islands {
			s.islands[i].sample(recs)
		}
		s.latch(s.statsSlot(k))
		s.cursor++
	case k >= s.first && k >= s.cursor-Window && k < s.cursor:
	default:
		panic(fmt.Sprintf("sim: sampler at interval %d retains %d intervals (from %d), asked for %d",
			s.cursor, Window, s.first, k))
	}
	return s.batch(k)
}

func (s *Sampler) batch(k int) []uarch.TraceRecord {
	i := k % Window * s.nCores
	return s.recs[i : i+s.nCores : i+s.nCores]
}

func (s *Sampler) statsSlot(k int) []CacheStats {
	per := len(s.base)
	i := k % Window * per
	return s.stats[i : i+per]
}

// latch writes the cores' cumulative counters into one stats slot. The
// chip's are the islands' summed.
func (s *Sampler) latch(dst []CacheStats) {
	dst[0] = CacheStats{}
	for i := range s.islands {
		st := s.islands[i].cacheStats()
		dst[1+i] = st
		addCacheStats(&dst[0].L1I, st.L1I)
		addCacheStats(&dst[0].L1D, st.L1D)
		addCacheStats(&dst[0].L2, st.L2)
	}
}

// counters returns the stats slot in force once interval n-1 has been
// sampled: the base at the sampler's first interval, otherwise the slot
// latched after interval n-1, which the sampler must still retain.
func (s *Sampler) counters(n int) []CacheStats {
	switch {
	case n == s.first:
		return s.base
	case n > s.first && n <= s.cursor && n > s.cursor-Window:
		return s.statsSlot(n - 1)
	}
	panic(fmt.Sprintf("sim: sampler at interval %d retains %d intervals (from %d), asked for counters before %d",
		s.cursor, Window, s.first, n))
}

// CacheStats returns the sampler's current cumulative cache counters:
// summed over cores, shared L2s counted once per island. A chip over the
// sampler reads them at its own interval instead; a caller wrapping the
// sampler in another RecordSource installs these with
// CMP.SetCacheStatsSource.
func (s *Sampler) CacheStats() CacheStats { return s.counters(s.cursor)[0] }

// IslandCacheStats is the island-i twin of CacheStats (see
// CMP.SetIslandCacheStatsSource).
func (s *Sampler) IslandCacheStats(i int) CacheStats { return s.counters(s.cursor)[1+i] }

// Snapshot appends the sampler's complete dynamic state: the cursor and
// per island its shared L2 (once, when shared) and per-core generator and
// cache state. The retained window is not captured: a restored sampler
// serves intervals from its cursor on, so every chip sharing it must be
// snapshotted at that cursor too.
func (s *Sampler) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagSampler)
	e.Int(s.nCores)
	e.Int(len(s.islands))
	for _, isl := range s.islands {
		e.Int(len(isl.cores))
	}
	e.Int(s.cursor)
	for _, isl := range s.islands {
		e.Bool(isl.shared != nil)
		if isl.shared != nil {
			isl.shared.Snapshot(e)
		}
		for _, core := range isl.cores {
			core.Snapshot(e, isl.shared == nil)
		}
	}
}

// Restore reads state written by Snapshot into a freshly constructed,
// structurally identical sampler. The window restarts at the restored
// cursor, with the restored counters as its base. On error the sampler may
// be partially written and must be discarded.
func (s *Sampler) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagSampler)
	nCores := d.Int()
	nIslands := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nCores != s.nCores || nIslands != len(s.islands) {
		return snapshot.ShapeErrorf("snapshot sampler is %d cores / %d islands, target is %d / %d",
			nCores, nIslands, s.nCores, len(s.islands))
	}
	for i, isl := range s.islands {
		if n := d.Int(); d.Err() == nil && n != len(isl.cores) {
			return snapshot.ShapeErrorf("snapshot sampler island %d has %d cores, target has %d", i, n, len(isl.cores))
		}
	}
	cursor := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if cursor < 0 {
		return snapshot.ShapeErrorf("negative sampler cursor %d", cursor)
	}
	s.cursor, s.first = cursor, cursor
	for i, isl := range s.islands {
		hadShared := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if hadShared != (isl.shared != nil) {
			return snapshot.ShapeErrorf("sampler island %d shared-L2 presence %v, target %v", i, hadShared, isl.shared != nil)
		}
		if isl.shared != nil {
			if err := isl.shared.Restore(d); err != nil {
				return err
			}
		}
		for _, core := range isl.cores {
			if err := core.Restore(d, isl.shared == nil); err != nil {
				return err
			}
		}
	}
	s.latch(s.base)
	return d.Err()
}
