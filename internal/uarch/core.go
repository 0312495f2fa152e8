// Package uarch implements the out-of-order core model of the CMP simulator
// using interval analysis: instead of simulating every pipeline stage cycle
// by cycle (the role GEMS/OPAL played in the paper's setup), each control
// interval is summarized by an analytic CPI decomposition
//
//	CPI = CPI_base(ILP) + CPI_L2-stalls + CPI_memory-stalls(f)
//
// driven by *measured* miss rates from a real cache hierarchy fed with
// sampled synthetic address streams. Because DRAM latency is fixed in
// nanoseconds while on-chip latencies are fixed in cycles, the model
// reproduces the property the power controllers exploit: CPU-bound
// applications speed up linearly with frequency while memory-bound ones
// barely respond — at a tiny fraction of the cost of cycle-accurate
// simulation.
package uarch

import (
	"errors"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Params are the pipeline parameters of Table I.
type Params struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IQSize      int
}

// TableIParams returns the paper's core configuration: 4-wide fetch, 2-wide
// issue and commit (Table I), with conventional ROB/IQ sizes for such a
// machine.
func TableIParams() Params {
	return Params{FetchWidth: 4, IssueWidth: 2, CommitWidth: 2, ROBSize: 128, IQSize: 32}
}

// Validate checks the pipeline parameters.
func (p Params) Validate() error {
	if p.FetchWidth <= 0 || p.IssueWidth <= 0 || p.CommitWidth <= 0 {
		return errors.New("uarch: non-positive pipeline width")
	}
	if p.ROBSize <= 0 || p.IQSize <= 0 {
		return errors.New("uarch: non-positive window size")
	}
	return nil
}

// Config bundles core parameters with the sampling densities of the
// interval model.
type Config struct {
	Params Params
	// DataSampleRefs is the number of data references pushed through the
	// cache hierarchy per interval to estimate miss rates.
	DataSampleRefs int
	// FetchSampleRefs is the number of instruction-fetch references sampled
	// per interval.
	FetchSampleRefs int
	// NominalMaxMHz is the chip's nominal top frequency, the denominator of
	// the normalized-throughput utilization metric.
	NominalMaxMHz float64
}

// DefaultConfig returns the Table I configuration with the default sampling
// density.
func DefaultConfig() Config {
	return Config{
		Params:          TableIParams(),
		DataSampleRefs:  2048,
		FetchSampleRefs: 512,
		NominalMaxMHz:   2000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.DataSampleRefs <= 0 || c.FetchSampleRefs <= 0 {
		return errors.New("uarch: non-positive sample density")
	}
	if c.NominalMaxMHz <= 0 {
		return errors.New("uarch: non-positive nominal frequency")
	}
	return nil
}

// IntervalStats summarises one control interval of one core.
type IntervalStats struct {
	// Instructions executed during the interval.
	Instructions float64
	// CPI is the effective cycles per instruction.
	CPI float64
	// BIPS is billions of instructions per second over the interval.
	BIPS float64
	// BusyFrac is the fraction of cycles the core was not stalled on the
	// memory system; it drives switching activity in the power model.
	BusyFrac float64
	// Utilization is the normalized-throughput utilization reported by the
	// performance counters: instructions retired relative to the core's
	// issue-limited maximum at the nominal top frequency. This is the
	// observable the PIC's transducer converts to power (§II-D).
	Utilization float64
	// Activity is the per-unit activity profile for the power model.
	Activity power.ActivityProfile
	// MemBlocks is the estimated number of cache-block transfers to memory
	// during the interval (full-interval estimate, not the sample count).
	MemBlocks uint64
	// Phase is the workload phase the interval ran in.
	Phase workload.Phase
}

// Core is the sampling half of one simulated core executing one
// application thread: the phase machine, the address-stream generators and
// the cache hierarchy they drive. SampleInterval turns one interval of that
// workload into a frequency-independent TraceRecord; a ComputeCore
// evaluates it at an operating point. It is not safe for concurrent use; a
// parallel sampler steps each core only from its island's goroutine.
type Core struct {
	id      int
	cfg     Config
	prof    workload.Profile
	phases  *workload.PhaseGen
	streams *workload.StreamGen
	hier    *cache.Hierarchy

	dataBuf  []uint64
	fetchBuf []uint64
}

// NewCore builds a core. The hierarchy is owned by the caller (the L2 may
// be shared between cores of an island).
func NewCore(id int, seed uint64, cfg Config, prof workload.Profile, hier *cache.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, errors.New("uarch: core needs a cache hierarchy")
	}
	streams, err := workload.NewStreamGen(seed, id, prof)
	if err != nil {
		return nil, err
	}
	return &Core{
		id:      id,
		cfg:     cfg,
		prof:    prof,
		phases:  workload.NewPhaseGen(seed, prof),
		streams: streams,
		hier:    hier,
	}, nil
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.id }

// Profile returns the application profile the core runs.
func (c *Core) Profile() workload.Profile { return c.prof }

// CacheStats returns the cumulative access counters of the core's cache
// hierarchy. For a shared L2 the third result is the shared cache's
// counters, common to every core of the island; the caller is responsible
// for not double-counting them.
func (c *Core) CacheStats() (l1i, l1d, l2 cache.Stats) {
	return c.hier.L1I.Stats(), c.hier.L1D.Stats(), c.hier.L2.Stats()
}

// TraceRecord captures the frequency-independent workload state of one
// core-interval: everything SampleInterval derives from the phase machine
// and the sampled cache simulation, but nothing that depends on the
// operating point. A recorded trace can therefore be replayed under a
// *different* DVFS trajectory — the same separation interval-trace
// simulators exploit — skipping phase generation and cache simulation
// entirely.
type TraceRecord struct {
	// BaseCPI is the ILP-limited CPI after phase scaling and the
	// issue-width floor.
	BaseCPI float64
	// MemRefs is the phase-scaled data references per instruction.
	MemRefs float64
	// PDataL2 and PDataMem are the measured fractions of data references
	// served by the L2 and by memory.
	PDataL2, PDataMem float64
	// PFetchL2 and PFetchMem are the corresponding fetch-side fractions.
	PFetchL2, PFetchMem float64
	// ActMult is the phase's activity multiplier.
	ActMult float64
	// Phase is kept for completeness/debugging.
	Phase workload.Phase
}

// SampleInterval advances the phase machine and pushes the sampled address
// streams through the caches, yielding the interval's TraceRecord — the
// frequency-independent half of the interval model. Every call advances
// workload state; pair each record with exactly one
// ComputeCore.FinishInterval per chip to keep instruction accounting
// meaningful.
func (c *Core) SampleInterval() TraceRecord {
	ph := c.phases.Next()
	c.dataBuf = c.streams.DataAddrs(c.cfg.DataSampleRefs, ph, c.dataBuf)
	var dL2, dMem int
	for _, a := range c.dataBuf {
		switch c.hier.Data(a) {
		case cache.HitL2:
			dL2++
		case cache.HitMemory:
			dMem++
		}
	}
	c.fetchBuf = c.streams.FetchAddrs(c.cfg.FetchSampleRefs, c.fetchBuf)
	var fL2, fMem int
	for _, a := range c.fetchBuf {
		switch c.hier.Fetch(a) {
		case cache.HitL2:
			fL2++
		case cache.HitMemory:
			fMem++
		}
	}
	dn := float64(c.cfg.DataSampleRefs)
	fn := float64(c.cfg.FetchSampleRefs)

	baseCPI := c.prof.BaseCPI * ph.CPIMult
	if floor := 1 / float64(c.cfg.Params.IssueWidth); baseCPI < floor {
		baseCPI = floor
	}
	return TraceRecord{
		BaseCPI:   baseCPI,
		MemRefs:   clamp01(c.prof.MemRefFraction * ph.MemMult),
		PDataL2:   float64(dL2) / dn,
		PDataMem:  float64(dMem) / dn,
		PFetchL2:  float64(fL2) / fn,
		PFetchMem: float64(fMem) / fn,
		ActMult:   ph.ActMult,
		Phase:     ph,
	}
}

// computeInterval turns a TraceRecord into IntervalStats at a given
// operating point — the frequency-dependent half of the interval model. It
// writes every field of out, one by one: assigning a composite literal
// through the pointer would build it in a temporary and copy it.
func computeInterval(rec *TraceRecord, cfg *Config, prof *workload.Profile,
	l2Lat, memNs, freqMHz, intervalSec, overheadFrac float64, out *IntervalStats) {
	memLat := memNs * freqMHz / 1000

	// One instruction-cache block (64 B, ~16 instructions) is fetched per
	// block's worth of sequential instructions; only these block fetches
	// can miss.
	const instrPerFetchBlock = 16.0
	fetchPerInstr := 1 / instrPerFetchBlock
	stallCPI := rec.MemRefs*(rec.PDataL2*l2Lat+rec.PDataMem*memLat/prof.MLP) +
		fetchPerInstr*(rec.PFetchL2*l2Lat+rec.PFetchMem*memLat)
	cpi := rec.BaseCPI + stallCPI

	if overheadFrac < 0 {
		overheadFrac = 0
	}
	if overheadFrac > 1 {
		overheadFrac = 1
	}
	cycles := freqMHz * 1e6 * intervalSec * (1 - overheadFrac)
	instructions := cycles / cpi

	busy := rec.BaseCPI / cpi
	// Utilization as hardware activity counters report it: active-pipeline
	// cycles per second relative to the nominal maximum cycle rate. A core
	// stalled on memory is not halted — its front end keeps speculating and
	// its MSHRs stay busy — so stall cycles register roughly half-active,
	// consistent with the power model's structural baselines. The resulting
	// metric is near-linear in frequency for both CPU- and memory-bound
	// code, which is what makes the Figure 6 utilization→power relation
	// linear across the whole suite.
	active := busy + 0.5*(1-busy)

	out.Instructions = instructions
	out.CPI = cpi
	out.BIPS = instructions / intervalSec / 1e9
	out.BusyFrac = busy
	out.Utilization = clamp01(active * freqMHz * (1 - overheadFrac) / cfg.NominalMaxMHz)
	out.Phase = rec.Phase
	out.Activity.Utilization = clamp01(busy * rec.ActMult * prof.ActivityScale)
	out.Activity.FPFraction = prof.FPFraction
	out.Activity.MemRefFraction = rec.MemRefs
	out.Activity.L2AccessFactor = clamp01(rec.MemRefs * (rec.PDataL2 + rec.PDataMem) * 4)
	// Full-interval memory traffic estimate from the sampled miss rates.
	out.MemBlocks = 0
	if blocks := instructions * (rec.MemRefs*rec.PDataMem + fetchPerInstr*rec.PFetchMem); blocks > 0 {
		out.MemBlocks = uint64(blocks)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
