package sim

import (
	"errors"
	"fmt"
	"sync"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/uarch"
)

// Sampler is the frequency-independent half of a chip: the per-core phase
// machines, address-stream generators and cache hierarchies, advanced one
// interval at a time to produce TraceRecord batches. Every New chip owns
// one. Because records do not depend on the operating point, every chip
// sharing the sampler's workload identity (seed, mix, core and cache
// configuration — see farm.WorkloadKey) can be driven from one Sampler
// through NewWithRecords, paying the expensive sampling work (>95% of a
// step) once per interval instead of once per chip. A farm group shares
// one this way, and so do core.Calibrate's unmanaged and white-noise chips.
//
// The memory system, thermal, variation and DVFS parts of cfg are ignored —
// they belong to the compute half. With cfg.Parallel set, each island is
// sampled on its own goroutine: islands share no sampling state and write
// disjoint parts of the batch, so the records are bit-identical to
// sequential sampling.
//
// Not safe for concurrent use; in a farm each sampler group is stepped by
// one worker.
type Sampler struct {
	cfg     Config
	islands []samplerIsland
	cursor  int
	recs    []uarch.TraceRecord // global core-ID order
	// fresh reports that recs holds interval cursor-1 (false right after
	// construction or restore, when no batch has been sampled yet).
	fresh bool
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
	s := &Sampler{cfg: cfg}
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
	s.recs = make([]uarch.TraceRecord, coreID)
	return s, nil
}

// NumCores returns the core count of the sampled chip.
func (s *Sampler) NumCores() int { return len(s.recs) }

// Cursor returns the next interval the sampler will generate.
func (s *Sampler) Cursor() int { return s.cursor }

// Records implements RecordSource: asking for the cursor interval samples
// a fresh batch and advances; asking for the interval just sampled returns
// the cached batch (the sharing path — every chip of a group steps the
// same interval). Anything else panics: a chip has fallen out of lockstep
// with its sampler, and continuing would silently corrupt every sharing
// chip's workload stream.
func (s *Sampler) Records(k int) []uarch.TraceRecord {
	switch {
	case k == s.cursor:
		if s.cfg.Parallel && len(s.islands) > 1 {
			var wg sync.WaitGroup
			for i := range s.islands {
				wg.Add(1)
				go func(isl *samplerIsland) {
					defer wg.Done()
					isl.sample(s.recs)
				}(&s.islands[i])
			}
			wg.Wait()
		} else {
			for i := range s.islands {
				s.islands[i].sample(s.recs)
			}
		}
		s.cursor++
		s.fresh = true
	case k == s.cursor-1 && s.fresh:
		// cached batch
	default:
		panic(fmt.Sprintf("sim: record source at interval %d driven out of lockstep (asked for %d)", s.cursor, k))
	}
	return s.recs
}

// CacheStats aggregates the sampler's cumulative cache counters: summed
// over cores, shared L2s counted once per island. Chips read them through
// CMP.SetCacheStatsSource (all chips of a farm group share these
// counters).
func (s *Sampler) CacheStats() CacheStats {
	var out CacheStats
	for _, isl := range s.islands {
		for j, core := range isl.cores {
			l1i, l1d, l2 := core.CacheStats()
			addCacheStats(&out.L1I, l1i)
			addCacheStats(&out.L1D, l1d)
			if isl.shared == nil || j == 0 {
				addCacheStats(&out.L2, l2)
			}
		}
	}
	return out
}

// IslandCacheStats aggregates island i's cumulative cache counters: summed
// over the island's cores, a shared L2 counted once. Chips read them
// through CMP.SetIslandCacheStatsSource.
func (s *Sampler) IslandCacheStats(i int) CacheStats {
	var out CacheStats
	isl := s.islands[i]
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

// Snapshot appends the sampler's complete dynamic state: the cursor and
// per island its shared L2 (once, when shared) and per-core generator and
// cache state. The cached record batch is not captured — snapshots are
// taken between steps (between farm rounds for a shared sampler), when
// every chip has consumed it and the next request advances the cursor.
func (s *Sampler) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagSampler)
	e.Int(len(s.recs))
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
// structurally identical sampler. On error the sampler may be partially
// written and must be discarded.
func (s *Sampler) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagSampler)
	nCores := d.Int()
	nIslands := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nCores != len(s.recs) || nIslands != len(s.islands) {
		return snapshot.ShapeErrorf("snapshot sampler is %d cores / %d islands, target is %d / %d",
			nCores, nIslands, len(s.recs), len(s.islands))
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
	s.cursor = cursor
	s.fresh = false
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
	return d.Err()
}
