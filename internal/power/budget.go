package power

import "errors"

// Model bundles the dynamic and leakage models with the DVFS table into the
// per-core power model the simulator uses.
type Model struct {
	Table   *DVFSTable
	Dynamic *DynamicModel
	Leakage *LeakageModel
}

// DefaultModel returns the calibrated model used throughout the
// reproduction: a 90 nm-class core drawing 10 W dynamic at 2 GHz/1.356 V with
// everything switching, plus 2 W leakage at the reference point — so an
// 8-core chip tops out around 96 W, in the envelope of the CMPs the paper
// targets.
func DefaultModel() *Model {
	table := PentiumM()
	dyn, err := NewDynamicModel(10.0, table.Max(), 0.10, DefaultUnitWeights)
	if err != nil {
		panic("power: invalid default dynamic model: " + err.Error())
	}
	// β = 0.01/°C keeps the electrothermal loop stable: with the default
	// 4.5 °C/W thermal resistance the feedback gain leak·β·Rth stays well
	// below 1 at every reachable operating point, so temperatures settle
	// instead of running away. (Stronger coefficients model newer nodes but
	// need proportionally better cooling.)
	leak, err := NewLeakageModel(2.0, table.Max().VoltageV, 45, 0.01)
	if err != nil {
		panic("power: invalid default leakage model: " + err.Error())
	}
	return &Model{Table: table, Dynamic: dyn, Leakage: leak}
}

// CorePower returns a core's total (dynamic + static) power in watts at DVFS
// level lvl with interval activity a, temperature tC and variation
// multiplier varMult.
func (m *Model) CorePower(lvl int, a *Activity, tC, varMult float64) float64 {
	op := m.Table.Point(m.Table.ClampLevel(lvl))
	return m.Dynamic.Power(op, a) + m.Leakage.Power(op.VoltageV, tC, varMult)
}

// CoreMaxPower returns a core's power at the top operating point with full
// activity at the leakage reference temperature and nominal variation — the
// per-core contribution to "maximum chip power", the denominator of every
// percent-power figure in the paper.
func (m *Model) CoreMaxPower() float64 {
	op := m.Table.Max()
	full := FullActivity()
	return m.Dynamic.Power(op, &full) + m.Leakage.Power(op.VoltageV, m.Leakage.TRefC, 1)
}

// MaxChipPower returns the maximum chip power for n cores.
func (m *Model) MaxChipPower(n int) float64 {
	return float64(n) * m.CoreMaxPower()
}

// ErrBadBudget reports an out-of-range power budget fraction.
var ErrBadBudget = errors.New("power: budget fraction must be in (0, 1]")

// BudgetWatts converts a budget given as a fraction of maximum chip power
// into watts for an n-core chip.
func (m *Model) BudgetWatts(fraction float64, n int) (float64, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, ErrBadBudget
	}
	return fraction * m.MaxChipPower(n), nil
}
