package engine

import (
	"errors"

	"github.com/cpm-sim/cpm/internal/maxbips"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
)

// MaxBIPSRunner drives the MaxBIPS baseline: from the end of the first
// period on, every period intervals the planner picks DVFS levels under
// the budget from a workload-blind static characterization table (the
// paper's comparison setup). The planner reads only how many island
// observations it gets, so the runner hands it a fixed slice of one per
// island and its only state is the interval counter.
type MaxBIPSRunner struct {
	cmp     *sim.CMP
	planner *maxbips.Planner
	budgetW float64
	period  int

	k   int
	obs []maxbips.IslandObs
}

// NewMaxBIPSRunner wraps a chip and planner. period ≤ 0 selects the default
// of 20 intervals (50 ms of 2.5 ms intervals).
func NewMaxBIPSRunner(cmp *sim.CMP, planner *maxbips.Planner, budgetW float64, period int) (*MaxBIPSRunner, error) {
	if cmp == nil {
		return nil, errNilChip
	}
	if planner == nil {
		return nil, errors.New("engine: nil MaxBIPS planner")
	}
	if budgetW <= 0 {
		return nil, errors.New("engine: non-positive MaxBIPS budget")
	}
	if period <= 0 {
		period = 20
	}
	return &MaxBIPSRunner{
		cmp:     cmp,
		planner: planner,
		budgetW: budgetW,
		period:  period,
		obs:     make([]maxbips.IslandObs, cmp.NumIslands()),
	}, nil
}

// Chip implements Runner.
func (r *MaxBIPSRunner) Chip() *sim.CMP { return r.cmp }

// Step implements Runner.
func (r *MaxBIPSRunner) Step() Step {
	if r.k%r.period == 0 && r.k >= r.period {
		for i, lvl := range r.planner.Choose(r.budgetW, r.obs) {
			r.cmp.SetLevel(i, lvl)
		}
	}
	res := r.cmp.Step()
	st := Step{Index: r.k, Sim: res, GPMInvoked: r.k%r.period == 0}
	r.k++
	return st
}

// StaticPredictionTable builds the characterization table the static
// MaxBIPS selects from: per island and level, the nominal power of its
// cores at a typical 70% activity plus reference-temperature leakage — the
// kind of offline table a datasheet-driven implementation would carry.
// Every island is characterized from its *own* model and table, so row
// lengths differ on a chip whose islands run different tables.
func StaticPredictionTable(cmp *sim.CMP) [][]float64 {
	out := make([][]float64, cmp.NumIslands())
	for i := range out {
		m := cmp.IslandModel(i)
		tbl := cmp.IslandTable(i)
		out[i] = make([]float64, tbl.Levels())
		full := power.FullActivity()
		for l := 0; l < tbl.Levels(); l++ {
			op := tbl.Point(l)
			corePred := 0.7*m.Dynamic.Power(op, &full) +
				m.Leakage.Power(op.VoltageV, m.Leakage.TRefC, 1)
			out[i][l] = corePred * float64(cmp.IslandCores(i))
		}
	}
	return out
}

// NewStaticPlanner builds the static-table MaxBIPS planner for a chip over
// its StaticPredictionTable — the one constructor every driver (sweep,
// farm, serve, experiments) uses, so heterogeneous chips are planned on
// each island's own levels.
func NewStaticPlanner(cmp *sim.CMP) (*maxbips.Planner, error) {
	return maxbips.New(StaticPredictionTable(cmp))
}
