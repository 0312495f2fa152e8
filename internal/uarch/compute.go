package uarch

import (
	"errors"

	"github.com/cpm-sim/cpm/internal/mem"
	"github.com/cpm-sim/cpm/internal/workload"
)

// ComputeCore is the frequency-dependent half of a core: it evaluates
// externally supplied TraceRecords at its own operating point, against its
// own memory system and interconnect state. It owns no phase machine, no
// address streams and no caches, so it is a few hundred bytes instead of a
// few hundred kilobytes. Every chip steps its cores this way, with records
// from the chip's own sampler, a sampler shared by a farm group (see
// sim.Sampler / internal/farm), or a recorded trace. Because TraceRecords
// are frequency-independent, all three compute bit-identical IntervalStats
// from the same records under any DVFS trajectory.
type ComputeCore struct {
	id     int
	cfg    Config
	prof   workload.Profile
	l2Lat  float64
	memsys *mem.System

	extraMemNs        func() float64
	totalInstructions float64
}

// NewComputeCore builds a compute-only core. l2LatencyCycles is the L2
// latency the records' miss fractions are charged at (the sampling
// hierarchy's, normally cache.TableIL2PerCore().LatencyCycles).
func NewComputeCore(id int, cfg Config, prof workload.Profile,
	l2LatencyCycles int, memsys *mem.System) (*ComputeCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if l2LatencyCycles < 0 {
		return nil, errors.New("uarch: negative L2 latency")
	}
	if memsys == nil {
		return nil, errors.New("uarch: compute core needs a memory system")
	}
	return &ComputeCore{
		id:     id,
		cfg:    cfg,
		prof:   prof,
		l2Lat:  float64(l2LatencyCycles),
		memsys: memsys,
	}, nil
}

// ID returns the core's identifier.
func (c *ComputeCore) ID() int { return c.id }

// Profile returns the application profile the core runs.
func (c *ComputeCore) Profile() workload.Profile { return c.prof }

// TotalInstructions returns the cumulative instruction count.
func (c *ComputeCore) TotalInstructions() float64 { return c.totalInstructions }

// SetExtraMemLatency installs a per-interval source of additional memory
// latency in nanoseconds (the on-chip interconnect's round trip from this
// core's tile to the nearest memory controller). It is evaluated once per
// interval; the interconnect state is previous-interval, like the memory
// system's.
func (c *ComputeCore) SetExtraMemLatency(f func() float64) { c.extraMemNs = f }

// FinishInterval evaluates the supplied record at the given operating
// point: freqMHz for intervalSec, of which overheadFrac is lost to a DVFS
// transition (0 when the operating point did not change). It accumulates
// the instruction count.
func (c *ComputeCore) FinishInterval(rec TraceRecord, freqMHz, intervalSec, overheadFrac float64) IntervalStats {
	memNs := c.memsys.LatencyNs()
	if c.extraMemNs != nil {
		memNs += c.extraMemNs()
	}
	stats := computeInterval(rec, c.cfg, c.prof, c.l2Lat, memNs,
		freqMHz, intervalSec, overheadFrac)
	c.totalInstructions += stats.Instructions
	return stats
}
