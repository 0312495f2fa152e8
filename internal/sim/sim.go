// Package sim is the full-system CMP simulator: it composes the core models,
// cache hierarchies, memory system, power models, thermal model and process
// variation into one interval-driven engine — the role Simics+GEMS+Wattch+
// HotLeakage played for the paper.
//
// The engine advances in PIC-sized intervals (2.5 ms by default). Each
// interval splits in two halves. A record source supplies every core's
// frequency-independent workload record (uarch.TraceRecord): a Sampler
// runs the phase machines, address streams and caches, or a recorded trace
// is replayed. The chip then evaluates each record under its island's
// current operating point, and island and chip power, utilization, BIPS and
// temperatures are produced for the controllers sitting on top
// (internal/core wires the GPM and PICs to this engine; internal/maxbips
// drives it for the baseline). Every chip steps the same way: New builds
// one over a sampler it owns, NewWithRecords over a caller's (possibly
// shared) source and NewReplay over a trace. A Sampler is a bounded record
// log — it retains its last Window intervals — so chips sharing one step
// in lockstep or up to Window intervals apart under one contract.
//
// Cross-island couplings (shared-memory queueing and lateral heat flow) are
// applied with one interval of delay, and islands share no sampling state.
// A chip steps on one goroutine; parallelism lives in the pools that run
// whole sessions (engine.Pool, farm groups, sweepd and serve workers), and
// chips sharing a sampler pay its sampling once per interval instead.
package sim

import (
	"errors"
	"fmt"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/island"
	"github.com/cpm-sim/cpm/internal/mem"
	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/thermal"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Config describes a complete CMP instance.
type Config struct {
	// Seed drives every stochastic component deterministically.
	Seed uint64
	// Mix assigns benchmarks to cores and defines the island structure.
	Mix workload.Mix
	// Core is the per-core microarchitecture configuration.
	Core uarch.Config
	// Power is the power model (DefaultModel if nil).
	Power *power.Model
	// Tech selects a technology node that rescales the power model and the
	// DVFS table (power.ScaleModel) before any per-island specialization.
	// The zero value applies no scaling at all: the chip is bit-identical
	// to one built before the tech axis existed.
	Tech power.TechConfig
	// IslandClasses assigns a core class per island for heterogeneous
	// big.LITTLE chips: each island gets its own DVFS table, power-model
	// scalars (power.ModelForClass) and pipeline preset
	// (uarch.ParamsForClass). Nil means every island runs the big
	// out-of-order class on the chip-wide model — the legacy homogeneous
	// path. When non-nil the length must equal the mix's island count.
	IslandClasses []power.CoreClass
	// Mem is the memory system configuration.
	Mem mem.Config
	// Thermal is the RC thermal configuration.
	Thermal thermal.Config
	// Variation is the per-core leakage variation map (uniform if empty).
	Variation variation.Map
	// IntervalSec is the simulation interval — the PIC invocation period
	// (2.5 ms default).
	IntervalSec float64
	// InitialLevel is the DVFS level all islands start at; -1 means the top
	// level (the no-power-management operating point).
	InitialLevel int
	// SharedL2 shares a banked L2 among the cores of each island,
	// approximating the shared-LLC layout of Figure 1 at island
	// granularity; the default (false) gives each core its private 512 KB
	// slice per Table I's "512 KB per core". With true LRU and sampled
	// streams, full sharing lets one streaming application evict a
	// co-runner's entire working set every few intervals — far harsher
	// than the paper's environment — so private slices are the default.
	SharedL2 bool
	// L2PrefetchDegree, when positive, attaches a sequential stream
	// prefetcher of that degree to every private L2 slice — a substrate
	// option the paper's platform lacks (off by default); incompatible
	// with SharedL2.
	L2PrefetchDegree int
	// NoC, when non-nil, adds a GALS mesh interconnect between core tiles
	// and the die-centre memory controllers: every memory access pays the
	// mesh round trip on top of DRAM latency, with congestion fed back
	// with one interval of delay. Nil disables the interconnect (memory
	// controller adjacency, the pre-mesh idealization).
	NoC *noc.Config
}

// DefaultConfig returns the paper's baseline configuration (Table I) for the
// given mix.
func DefaultConfig(mix workload.Mix) Config {
	return Config{
		Seed:         1,
		Mix:          mix,
		Core:         uarch.DefaultConfig(),
		Mem:          mem.TableI(),
		Thermal:      thermal.DefaultConfig(),
		IntervalSec:  0.0025,
		InitialLevel: -1,
	}
}

// IslandResult is one island's observation for one interval — everything
// the GPM, PIC and baselines are allowed to see, plus the oracle power used
// for evaluation plots.
type IslandResult struct {
	Island  int
	Level   int
	FreqMHz float64
	// PowerW is the measured (oracle) island power.
	PowerW float64
	// PowerFracIsland is PowerW over the island's maximum power — the
	// quantity the PIC regulates.
	PowerFracIsland float64
	// PowerFracChip is PowerW over maximum chip power — the unit of the
	// paper's percent-power plots.
	PowerFracChip float64
	// MeanUtil is the mean normalized utilization across the island's
	// cores: the performance-counter observable fed to the transducer.
	MeanUtil float64
	// BIPS is the summed instruction throughput of the island.
	BIPS float64
	// Instructions executed by the island this interval.
	Instructions float64
	// Transitioned reports whether this interval paid a DVFS transition
	// overhead.
	Transitioned bool
}

// Result is one interval's chip-wide observation.
//
// Islands aliases a per-chip scratch buffer that Step overwrites on every
// interval (the steady-state loop allocates nothing); a caller that retains
// a Result across steps must Clone it first.
type Result struct {
	Interval      int
	Islands       []IslandResult
	ChipPowerW    float64
	ChipPowerFrac float64
	TotalBIPS     float64
	MaxTempC      float64
}

// Clone returns a deep copy whose Islands slice is independent of the
// chip's scratch buffer, safe to retain across Steps.
func (r Result) Clone() Result {
	r.Islands = append([]IslandResult(nil), r.Islands...)
	return r
}

// RecordSource supplies per-core TraceRecords, one batch per interval, to
// a chip's Step. The returned slice is indexed by global core ID and must
// stay valid until the next Records call.
//
// A Sampler serves its cursor interval (sampling it) and the Window
// intervals before it, so chips sharing one may step in lockstep or up to
// Window intervals apart. It panics on any other access — chips sharing it
// have diverged, which would silently corrupt every chip's workload
// stream.
type RecordSource interface {
	Records(k int) []uarch.TraceRecord
}

type islandState struct {
	isl       *island.Island
	cores     []*uarch.ComputeCore
	maxPowerW float64
	// model is the island's own power model: on a homogeneous chip every
	// island aliases the chip model (pointer-identical, so the legacy
	// numerics are untouched); on a heterogeneous or tech-scaled chip each
	// class carries its own scaled table and reference parameters.
	model *power.Model
	class power.CoreClass
}

// CMP is a simulated chip-multiprocessor instance.
type CMP struct {
	cfg      Config
	model    *power.Model
	islands  []*islandState
	memsys   *mem.System
	thermals *thermal.Model
	varmap   variation.Map

	mesh *noc.Mesh

	// src supplies every interval's per-core TraceRecords.
	src RecordSource
	// sampler is src when the chip owns it (New), nil otherwise. An owned
	// sampler is part of the chip's snapshot; any other source belongs to
	// whoever built the chip.
	sampler *Sampler

	// cacheStatsSrc supplies CacheStats (nil reports zeros): the chip
	// simulates no caches, its sampler does.
	cacheStatsSrc func() CacheStats
	// islandCacheStatsSrc is the per-island twin of cacheStatsSrc.
	islandCacheStatsSrc func(int) CacheStats

	nCores     int
	maxChipW   float64
	corePowers []float64 // global, indexed by core ID
	// resIslands is the reused backing array of every Result.Islands the
	// chip returns — part of the zero-allocation steady-state contract.
	resIslands []IslandResult
	interval   int
	totalInstr float64

	stepHooks []func(Result)
}

// AddStepHook subscribes a callback invoked at the end of every Step with
// the interval's observation — the sim-layer attachment point for
// observers when the chip is driven directly rather than through a
// controller. Hooks accumulate; the Result's Islands slice is live scratch,
// so hooks must copy what they keep. A nil hook is ignored. Not safe to
// call concurrently with Step.
func (c *CMP) AddStepHook(fn func(Result)) {
	if fn != nil {
		c.stepHooks = append(c.stepHooks, fn)
	}
}

// New builds a CMP from cfg over a sampler of its own: NewWithRecords over
// NewSampler(cfg), so every Step samples one interval of records and
// evaluates it at the islands' operating points. The chip's snapshot
// carries the sampler.
func New(cfg Config) (*CMP, error) {
	s, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	c, err := NewWithRecords(cfg, s)
	if err != nil {
		return nil, err
	}
	c.sampler = s
	return c, nil
}

// NewWithRecords builds a chip that draws its records from src (normally a
// Sampler built from the same Config, possibly shared by a farm group)
// instead of owning a sampler. Everything frequency- or chip-dependent —
// DVFS state, power, leakage, thermal RC network, memory and NoC
// congestion feedback, process variation — remains per-chip, so a chip fed
// the records New(cfg) would have sampled is bit-identical to it while
// costing a few KB and a few µs per interval instead of a few hundred KB
// and ~100µs per core. The source is not part of the chip's snapshot. A
// chip over a Sampler reads its cache statistics from the sampler at the
// interval it last stepped; over any other source it reports zeros until
// its owner installs a statistics source (SetCacheStatsSource).
func NewWithRecords(cfg Config, src RecordSource) (*CMP, error) {
	if src == nil {
		return nil, errors.New("sim: NewWithRecords needs a record source")
	}
	c, err := newChip(cfg)
	if err != nil {
		return nil, err
	}
	c.src = src
	if s, ok := src.(*Sampler); ok {
		c.SetCacheStatsSource(func() CacheStats { return s.counters(c.interval)[0] })
		c.SetIslandCacheStatsSource(func(i int) CacheStats { return s.counters(c.interval)[1+i] })
	}
	return c, nil
}

// newChip builds the frequency-dependent half of cfg: islands of compute
// cores, memory, NoC and thermal state. The caller sets the record source.
func newChip(cfg Config) (*CMP, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.IntervalSec <= 0 {
		return nil, errors.New("sim: non-positive interval")
	}
	if cfg.L2PrefetchDegree > 0 && cfg.SharedL2 {
		return nil, errors.New("sim: L2 prefetching requires private L2 slices")
	}
	model, islandModels, classes, err := resolveIslandModels(cfg)
	if err != nil {
		return nil, err
	}
	memsys, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}

	profiles, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	nCores := cfg.Mix.Cores()

	fp, err := floorplanFor(nCores)
	if err != nil {
		return nil, err
	}
	th, err := thermal.New(fp, cfg.Thermal)
	if err != nil {
		return nil, err
	}

	c := &CMP{
		cfg:        cfg,
		model:      model,
		memsys:     memsys,
		thermals:   th,
		varmap:     cfg.Variation,
		nCores:     nCores,
		corePowers: make([]float64, nCores),
	}
	if cfg.NoC != nil {
		mesh, err := noc.New(*cfg.NoC)
		if err != nil {
			return nil, err
		}
		if mesh.Tiles() < nCores {
			return nil, fmt.Errorf("sim: NoC has %d tiles for %d cores", mesh.Tiles(), nCores)
		}
		c.mesh = mesh
	}

	coreID := 0
	for islandID, islandProfiles := range profiles {
		st := &islandState{model: islandModels[islandID], class: classes[islandID]}
		coreCfg, err := islandCoreConfig(cfg, st.class, st.model.Table)
		if err != nil {
			return nil, err
		}
		initLevel := cfg.InitialLevel
		if initLevel < 0 {
			initLevel = st.model.Table.Levels() - 1
		}
		if initLevel != st.model.Table.ClampLevel(initLevel) {
			return nil, fmt.Errorf("sim: initial level %d out of range for island %d (%d levels)",
				initLevel, islandID, st.model.Table.Levels())
		}
		var coreIDs []int
		for _, prof := range islandProfiles {
			// Records are charged at the Table I per-core L2 latency in
			// every L2 configuration (banked shares it; the prefetcher
			// wraps a slice with it).
			core, err := uarch.NewComputeCore(coreID, coreCfg, prof,
				cache.TableIL2PerCore().LatencyCycles, memsys)
			if err != nil {
				return nil, fmt.Errorf("sim: core %d (%s): %w", coreID, prof.Name, err)
			}
			if c.mesh != nil {
				tile := coreID
				core.SetExtraMemLatency(func() float64 { return c.mesh.RoundTripLatencyNs(tile) })
			}
			st.cores = append(st.cores, core)
			coreIDs = append(coreIDs, coreID)
			coreID++
		}
		isl, err := island.New(islandID, coreIDs, st.model.Table, initLevel)
		if err != nil {
			return nil, err
		}
		st.isl = isl
		st.maxPowerW = float64(len(st.cores)) * st.model.CoreMaxPower()
		c.islands = append(c.islands, st)
	}
	// On a homogeneous chip the chip maximum is computed exactly as it
	// always was (n × per-core maximum); summing per-island maxima instead
	// would perturb the last ulps of every percent-power figure.
	if c.Heterogeneous() {
		for _, st := range c.islands {
			c.maxChipW += st.maxPowerW
		}
	} else {
		c.maxChipW = model.MaxChipPower(nCores)
	}
	c.resIslands = make([]IslandResult, len(c.islands))
	return c, nil
}

// resolveIslandModels derives the chip-level model (the base model scaled
// to cfg.Tech) and the per-island models and classes. On a homogeneous
// chip every island aliases the chip model pointer; heterogeneous chips
// get one specialized model per class (shared by islands of that class).
func resolveIslandModels(cfg Config) (*power.Model, []*power.Model, []power.CoreClass, error) {
	base := cfg.Power
	if base == nil {
		base = power.DefaultModel()
	}
	if err := cfg.Tech.Validate(); err != nil {
		return nil, nil, nil, err
	}
	chipModel, err := power.ScaleModel(base, cfg.Tech)
	if err != nil {
		return nil, nil, nil, err
	}
	nIslands := len(cfg.Mix.Islands)
	classes := make([]power.CoreClass, nIslands)
	if cfg.IslandClasses != nil {
		if len(cfg.IslandClasses) != nIslands {
			return nil, nil, nil, fmt.Errorf("sim: %d island classes for %d islands", len(cfg.IslandClasses), nIslands)
		}
		copy(classes, cfg.IslandClasses)
	}
	models := make([]*power.Model, nIslands)
	byClass := map[power.CoreClass]*power.Model{}
	for i, class := range classes {
		m, ok := byClass[class]
		if !ok {
			m, err = power.ModelForClass(chipModel, class)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sim: island %d: %w", i, err)
			}
			byClass[class] = m
		}
		models[i] = m
	}
	return chipModel, models, classes, nil
}

// islandCoreConfig specializes the chip-wide core configuration to one
// island: a non-OoO class replaces the pipeline preset, and once the tech
// or class axis is in play the island table's top frequency becomes the
// utilization denominator. The legacy path (no tech, OoO class) returns
// cfg.Core untouched so existing chips keep their exact record streams.
func islandCoreConfig(cfg Config, class power.CoreClass, table *power.DVFSTable) (uarch.Config, error) {
	if !cfg.Tech.Enabled() && class == power.ClassOoO {
		return cfg.Core, nil
	}
	cc := cfg.Core
	if class != power.ClassOoO {
		params, err := uarch.ParamsForClass(class)
		if err != nil {
			return uarch.Config{}, err
		}
		cc.Params = params
	}
	cc.NominalMaxMHz = table.Max().FreqMHz
	return cc, nil
}

// islandL2 builds an island's shared banked L2 when cfg.SharedL2 is set:
// one bank per core (rounded up to a power of two), each bank holding the
// Table I per-core share of 512 KB. Returns nil for private slices.
func islandL2(cfg Config, islandCores int) (*cache.Banked, error) {
	if !cfg.SharedL2 {
		return nil, nil
	}
	banks := 1
	for banks < islandCores {
		banks *= 2
	}
	return cache.NewBanked(cache.TableIL2PerCore(), banks)
}

// coreHierarchy builds one core's cache hierarchy, wiring the island's
// shared L2 when present and otherwise a private slice with the configured
// prefetcher.
func coreHierarchy(cfg Config, shared *cache.Banked) (*cache.Hierarchy, error) {
	l1i, err := cache.New(cache.TableIL1())
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cache.TableIL1())
	if err != nil {
		return nil, err
	}
	var l2 cache.Level2
	if shared != nil {
		l2 = shared
	} else {
		priv, err := cache.New(cache.TableIL2PerCore())
		if err != nil {
			return nil, err
		}
		l2 = priv
		if cfg.L2PrefetchDegree > 0 {
			pf, err := cache.NewStreamPrefetcher(priv, cfg.L2PrefetchDegree, 16)
			if err != nil {
				return nil, err
			}
			l2 = pf
		}
	}
	return cache.NewHierarchy(l1i, l1d, l2)
}

// floorplanFor returns a near-square grid containing exactly n cores.
func floorplanFor(n int) (thermal.Floorplan, error) {
	rows := 1
	for rows*rows < n {
		rows++
	}
	for n%rows != 0 {
		rows--
	}
	return thermal.Grid(rows, n/rows)
}

// NumIslands returns the island count.
func (c *CMP) NumIslands() int { return len(c.islands) }

// NumCores returns the chip's core count.
func (c *CMP) NumCores() int { return c.nCores }

// Heterogeneous reports whether any island carries a power model of its
// own rather than aliasing the chip model.
func (c *CMP) Heterogeneous() bool {
	for _, st := range c.islands {
		if st.model != c.model {
			return true
		}
	}
	return false
}

// IslandTable returns island i's own DVFS table. On a homogeneous chip
// this is the chip-global table for every island.
func (c *CMP) IslandTable(i int) *power.DVFSTable { return c.islands[i].model.Table }

// IslandModel returns island i's own power model.
func (c *CMP) IslandModel(i int) *power.Model { return c.islands[i].model }

// IslandClass returns island i's core class.
func (c *CMP) IslandClass(i int) power.CoreClass { return c.islands[i].class }

// Tech returns the chip's technology configuration (zero when unscaled).
func (c *CMP) Tech() power.TechConfig { return c.cfg.Tech }

// IntervalSec returns the simulation interval length.
func (c *CMP) IntervalSec() float64 { return c.cfg.IntervalSec }

// MaxChipPowerW returns the maximum chip power — the denominator of every
// percent-power quantity.
func (c *CMP) MaxChipPowerW() float64 { return c.maxChipW }

// IslandMaxPowerW returns the maximum power of island i.
func (c *CMP) IslandMaxPowerW(i int) float64 { return c.islands[i].maxPowerW }

// IslandCores returns the number of cores on island i.
func (c *CMP) IslandCores(i int) int { return len(c.islands[i].cores) }

// IslandBenchmarks returns the benchmark names running on island i.
func (c *CMP) IslandBenchmarks(i int) []string {
	out := make([]string, len(c.islands[i].cores))
	for j, core := range c.islands[i].cores {
		out[j] = core.Profile().Name
	}
	return out
}

// IslandLeakMult returns the mean process-variation leakage multiplier of
// island i, the observable the variation-aware policy uses.
func (c *CMP) IslandLeakMult(i int) float64 {
	st := c.islands[i]
	s := 0.0
	for _, id := range st.isl.CoreIDs() {
		s += c.varmap.CoreMult(id)
	}
	return s / float64(len(st.cores))
}

// Level returns island i's current DVFS level.
func (c *CMP) Level(i int) int { return c.islands[i].isl.Level() }

// SetLevel requests a DVFS change on island i and reports whether the
// operating point changed.
func (c *CMP) SetLevel(i, lvl int) bool { return c.islands[i].isl.SetLevel(lvl) }

// Transitions returns the cumulative DVFS transition count of island i.
func (c *CMP) Transitions(i int) int { return c.islands[i].isl.Transitions() }

// Thermals exposes the thermal model (read-only use by policies).
func (c *CMP) Thermals() *thermal.Model { return c.thermals }

// TotalInstructions returns cumulative instructions across all cores.
func (c *CMP) TotalInstructions() float64 { return c.totalInstr }

// SetCacheStatsSource sets where CacheStats reads from. The chip simulates
// no caches; its sampler does. A chip over a Sampler reads it at its own
// interval already; an owner that wraps the sampler in another
// RecordSource points this at the sampler. A nil source reports zeros.
func (c *CMP) SetCacheStatsSource(f func() CacheStats) { c.cacheStatsSrc = f }

// SetIslandCacheStatsSource sets where IslandCacheStats reads from, the
// island-resolution twin of SetCacheStatsSource. A nil source reports
// zeros.
func (c *CMP) SetIslandCacheStatsSource(f func(int) CacheStats) { c.islandCacheStatsSrc = f }

// CacheStats aggregates cumulative cache counters across the chip, one
// Stats per hierarchy level.
type CacheStats struct {
	L1I cache.Stats
	L1D cache.Stats
	L2  cache.Stats
}

// CacheStats returns the chip's cumulative cache counters from its
// statistics source (see SetCacheStatsSource): summed over cores, with a
// shared per-island L2 counted once per island. A chip without a source —
// a replay chip, which re-executes recorded cache behaviour — reports
// zeros. Allocation-free; safe to call between Steps.
func (c *CMP) CacheStats() CacheStats {
	if c.cacheStatsSrc == nil {
		return CacheStats{}
	}
	return c.cacheStatsSrc()
}

// IslandCacheStats returns island i's cumulative cache counters, the
// per-island resolution of CacheStats with identical semantics.
func (c *CMP) IslandCacheStats(i int) CacheStats {
	if c.islandCacheStatsSrc == nil {
		return CacheStats{}
	}
	return c.islandCacheStatsSrc(i)
}

func addCacheStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
}

// Step advances the chip by one interval and returns its observation. The
// returned Result's Islands slice is valid until the next Step (see
// Result.Clone).
func (c *CMP) Step() Result {
	recs := c.src.Records(c.interval)
	if len(recs) != c.nCores {
		panic(fmt.Sprintf("sim: record source supplied %d records for %d cores", len(recs), c.nCores))
	}
	// Islands, then the chip aggregates and delayed cross-island couplings.
	res := Result{Interval: c.interval, Islands: c.resIslands}
	var blocks uint64
	for i, st := range c.islands {
		r := &res.Islands[i]
		blocks += c.stepIsland(st, recs, r)
		res.ChipPowerW += r.PowerW
		res.TotalBIPS += r.BIPS
		c.totalInstr += r.Instructions
	}
	res.ChipPowerFrac = res.ChipPowerW / c.maxChipW
	c.memsys.ObserveTraffic(blocks, c.cfg.IntervalSec)
	if c.mesh != nil {
		// One request + one response flit train per block transfer.
		c.mesh.ObserveTraffic(2*blocks, c.cfg.IntervalSec)
	}
	if err := c.thermals.Step(c.corePowers, c.cfg.IntervalSec); err != nil {
		// Construction guarantees matching lengths and a positive interval.
		panic("sim: thermal step failed: " + err.Error())
	}
	res.MaxTempC = c.thermals.MaxTemp()
	c.interval++
	for _, h := range c.stepHooks {
		h(res)
	}
	return res
}

// stepIsland evaluates one island's records at its operating point,
// writing the island's observation into r and its cores' powers into
// corePowers, and returns the island's memory block transfers. It writes r
// field by field and reuses one IntervalStats and one Activity across the
// island's cores, so nothing is copied per core.
func (c *CMP) stepIsland(st *islandState, recs []uarch.TraceRecord, r *IslandResult) uint64 {
	overhead := st.isl.ConsumeOverhead()
	op := st.isl.OperatingPoint()
	var (
		cs                        uarch.IntervalStats
		act                       power.Activity
		powerW, util, bips, instr float64
		blocks                    uint64
	)
	for j, core := range st.cores {
		coreID := st.isl.CoreIDs()[j]
		core.FinishInterval(&recs[coreID], op.FreqMHz, c.cfg.IntervalSec, overhead, &cs)
		power.DeriveActivity(&cs.Activity, &act)
		pw := st.model.Dynamic.Power(op, &act) +
			st.model.Leakage.Power(op.VoltageV, c.thermals.Temp(coreID), c.varmap.CoreMult(coreID))
		c.corePowers[coreID] = pw
		powerW += pw
		util += cs.Utilization
		bips += cs.BIPS
		instr += cs.Instructions
		blocks += cs.MemBlocks
	}
	r.Island = st.isl.ID()
	r.Level = st.isl.Level()
	r.FreqMHz = op.FreqMHz
	r.PowerW = powerW
	r.PowerFracIsland = powerW / st.maxPowerW
	r.PowerFracChip = powerW / c.maxChipW
	r.MeanUtil = util / float64(len(st.cores))
	r.BIPS = bips
	r.Instructions = instr
	r.Transitioned = overhead > 0
	return blocks
}
