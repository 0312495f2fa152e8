package engine

import (
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
)

// Step is one interval's unified observation, produced by every Runner.
type Step struct {
	// Index is the runner's interval counter (warmup included).
	Index int
	// Measured reports whether the interval fell inside the session's
	// measurement window (set by the Session, false for bare Runner use).
	Measured bool
	// Sim is the simulator's observation for the interval.
	Sim sim.Result
	// AllocW is the per-island provision in force during the interval
	// (nil for unmanaged and MaxBIPS runs).
	AllocW []float64
	// GPMInvoked reports whether this interval began a new GPM epoch.
	GPMInvoked bool
	// GPMObs carries the island observations the GPM provisioned from when
	// GPMInvoked is set on a managed run — the gpm-layer view, copied from
	// core.StepResult.GPMObs.
	GPMObs []gpm.IslandObs
}

// Clone returns a deep copy of the step, independent of the runner's and
// chip's per-interval scratch buffers (Sim.Islands, AllocW). Observers see
// steps synchronously and need no copy; anything retaining a Step across
// intervals must Clone it.
func (s Step) Clone() Step {
	s.Sim = s.Sim.Clone()
	s.AllocW = append([]float64(nil), s.AllocW...)
	s.GPMObs = append([]gpm.IslandObs(nil), s.GPMObs...)
	return s
}

// Epoch is one GPM epoch's aggregate over the measurement window.
type Epoch struct {
	// Index counts measured epochs from 0.
	Index int
	// MeanPowerW and MeanBIPS are chip means over the epoch.
	MeanPowerW float64
	MeanBIPS   float64
	// Instructions executed during the epoch.
	Instructions float64
	// BudgetW is the session's chip budget (0 when unmanaged).
	BudgetW float64
	// AllocW is the per-island provision at the epoch's last interval
	// (nil when the runner reports no allocations).
	AllocW []float64
	// IslandPowerW and IslandBIPS are per-island epoch means.
	IslandPowerW []float64
	IslandBIPS   []float64
}

// Observer receives a session's run-lifecycle, per-step and per-GPM-epoch
// events. Implementations must not retain the slices handed to them beyond
// the call unless documented otherwise; Session passes freshly allocated
// epoch slices, so observers may keep those.
type Observer interface {
	// RunStart is called once before the first interval.
	RunStart(info RunInfo)
	// ObserveStep is called after every interval, warmup included.
	ObserveStep(s Step)
	// ObserveEpoch is called at every measured GPM-epoch boundary.
	ObserveEpoch(e Epoch)
	// RunEnd is called once with the finished summary.
	RunEnd(sum *Summary)
}

// Funcs adapts optional callbacks to the Observer interface; nil fields are
// skipped.
type Funcs struct {
	OnRunStart func(RunInfo)
	OnStep     func(Step)
	OnEpoch    func(Epoch)
	OnRunEnd   func(*Summary)
}

// RunStart implements Observer.
func (f Funcs) RunStart(info RunInfo) {
	if f.OnRunStart != nil {
		f.OnRunStart(info)
	}
}

// ObserveStep implements Observer.
func (f Funcs) ObserveStep(s Step) {
	if f.OnStep != nil {
		f.OnStep(s)
	}
}

// ObserveEpoch implements Observer.
func (f Funcs) ObserveEpoch(e Epoch) {
	if f.OnEpoch != nil {
		f.OnEpoch(e)
	}
}

// RunEnd implements Observer.
func (f Funcs) RunEnd(sum *Summary) {
	if f.OnRunEnd != nil {
		f.OnRunEnd(sum)
	}
}
