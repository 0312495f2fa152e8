// Package mem models the off-chip memory system of the CMP simulator.
//
// Table I of the paper specifies a 200-cycle access delay at the 2 GHz
// nominal frequency, i.e. a fixed 100 ns latency: DRAM latency does not
// shrink when cores are clocked down, which is precisely what makes
// memory-bound applications insensitive to DVFS (and CPU-bound applications
// sensitive). On top of the fixed latency, a simple open-loop queueing term
// adds contention delay as aggregate bandwidth demand approaches capacity —
// enough to couple co-scheduled memory-bound applications without requiring
// cycle-accurate DRAM state.
package mem

import "errors"

// Config describes the memory system.
type Config struct {
	// BaseLatencyNs is the unloaded access latency in nanoseconds.
	// 100 ns corresponds to Table I's 200 cycles at 2 GHz.
	BaseLatencyNs float64
	// BandwidthGBs is the peak sustainable bandwidth in GB/s.
	BandwidthGBs float64
	// BlockBytes is the transfer granularity (cache line size).
	BlockBytes int
	// MaxQueueFactor caps the queueing multiplier so that saturated
	// intervals produce bounded rather than infinite latencies.
	MaxQueueFactor float64
}

// TableI returns the paper's memory configuration: 200 cycles at 2 GHz over
// 64-byte lines, behind a dual-channel DDR3-class 25.6 GB/s memory system
// (the provisioning typical of the paper's era for an 8-core part, and
// enough that queueing stays a second-order effect at that scale — it
// reappears for the 32-core configuration, as it would in hardware).
func TableI() Config {
	return Config{BaseLatencyNs: 100, BandwidthGBs: 25.6, BlockBytes: 64, MaxQueueFactor: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BaseLatencyNs <= 0 {
		return errors.New("mem: non-positive base latency")
	}
	if c.BandwidthGBs <= 0 {
		return errors.New("mem: non-positive bandwidth")
	}
	if c.BlockBytes <= 0 {
		return errors.New("mem: non-positive block size")
	}
	if c.MaxQueueFactor < 1 {
		return errors.New("mem: queue factor cap below 1")
	}
	return nil
}

// System is the chip-wide memory model. It is driven once per control
// interval with the aggregate miss traffic of the previous interval, from
// which it derives the effective latency every core observes in the current
// interval. Using previous-interval traffic keeps the islands free of
// cross-island coupling inside an interval.
type System struct {
	cfg         Config
	utilization float64 // demand/capacity of the last observed interval
}

// New builds a memory system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// Config returns the configuration.
func (s *System) Config() Config { return s.cfg }

// ObserveTraffic records the aggregate block transfers of the interval that
// just completed, of duration intervalSec, updating the utilization that
// shapes next interval's latency.
func (s *System) ObserveTraffic(blocks uint64, intervalSec float64) {
	if intervalSec <= 0 {
		return
	}
	demandGBs := float64(blocks) * float64(s.cfg.BlockBytes) / intervalSec / 1e9
	s.utilization = demandGBs / s.cfg.BandwidthGBs
}

// Utilization returns the most recently observed demand/capacity ratio
// (may exceed 1 when the channel is oversubscribed).
func (s *System) Utilization() float64 { return s.utilization }

// LatencyNs returns the effective access latency for the current interval:
// the unloaded latency inflated by an M/M/1-style queueing factor
// 1/(1-ρ), clamped to MaxQueueFactor.
func (s *System) LatencyNs() float64 {
	rho := s.utilization
	factor := s.cfg.MaxQueueFactor
	if rho < 1 {
		f := 1 / (1 - rho)
		if f < factor {
			factor = f
		}
	}
	return s.cfg.BaseLatencyNs * factor
}

// LatencyCycles converts the effective latency into cycles at frequency
// freqMHz — the conversion that makes memory stalls relatively cheaper at
// low frequency.
func (s *System) LatencyCycles(freqMHz float64) float64 {
	return s.LatencyNs() * freqMHz / 1000
}
