package engine

import (
	"errors"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
)

// Runner adapts one steppable system to the engine: each call advances the
// chip by one PIC interval and returns the unified observation. Runners are
// single-use and not safe for concurrent use; run independent Runners in
// parallel via Pool instead.
type Runner interface {
	// Step advances the system one interval.
	Step() Step
	// Chip returns the underlying simulator instance.
	Chip() *sim.CMP
}

// CPMRunner drives a CPM-managed chip. Its steps carry the gpm-layer island
// observations at every epoch boundary, not just the resulting allocations.
type CPMRunner struct {
	ctl *core.CPM
	k   int
}

// NewCPMRunner wraps a two-tier controller.
func NewCPMRunner(ctl *core.CPM) *CPMRunner { return &CPMRunner{ctl: ctl} }

// Chip implements Runner.
func (r *CPMRunner) Chip() *sim.CMP { return r.ctl.Chip() }

// Controller returns the wrapped CPM instance.
func (r *CPMRunner) Controller() *core.CPM { return r.ctl }

// Step implements Runner.
func (r *CPMRunner) Step() Step {
	sr := r.ctl.Step()
	st := Step{Index: r.k, Sim: sr.Sim, AllocW: sr.AllocW, GPMInvoked: sr.GPMInvoked}
	if sr.GPMInvoked && len(sr.GPMObs) > 0 {
		// A copy, so an observer writing into it cannot reach the policy's
		// view of the epoch.
		st.GPMObs = append([]gpm.IslandObs(nil), sr.GPMObs...)
	}
	r.k++
	return st
}

// ChipRunner drives a raw chip with no power management — the unmanaged
// baseline every degradation figure normalizes against.
type ChipRunner struct {
	cmp *sim.CMP
	k   int
}

// NewChipRunner wraps an unmanaged chip.
func NewChipRunner(cmp *sim.CMP) *ChipRunner { return &ChipRunner{cmp: cmp} }

// Chip implements Runner.
func (r *ChipRunner) Chip() *sim.CMP { return r.cmp }

// Step implements Runner.
func (r *ChipRunner) Step() Step {
	st := Step{Index: r.k, Sim: r.cmp.Step()}
	r.k++
	return st
}

// errNilChip is shared by the runner constructors that validate their chip.
var errNilChip = errors.New("engine: nil chip")
