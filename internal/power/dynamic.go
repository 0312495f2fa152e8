package power

import (
	"errors"
	"fmt"
)

// Unit identifies a microarchitectural block in the Wattch-style per-unit
// dynamic power model.
type Unit int

// The modelled core units. Weights follow the rough per-unit energy
// breakdown Wattch reports for an aggressive out-of-order core at 90 nm.
const (
	UnitFetch Unit = iota
	UnitRename
	UnitIssue
	UnitRegFile
	UnitIntALU
	UnitFPU
	UnitL1I
	UnitL1D
	UnitL2
	UnitClock
	NumUnits
)

var unitNames = [NumUnits]string{
	"fetch", "rename", "issue", "regfile", "int-alu", "fpu",
	"l1i", "l1d", "l2", "clock",
}

// String returns the lower-case unit name.
func (u Unit) String() string {
	if u < 0 || u >= NumUnits {
		return fmt.Sprintf("unit(%d)", int(u))
	}
	return unitNames[u]
}

// UnitWeights gives each unit's share of the core's total effective
// switching capacitance. Weights must sum to 1.
type UnitWeights [NumUnits]float64

// DefaultUnitWeights is the built-in capacitance breakdown.
var DefaultUnitWeights = UnitWeights{
	UnitFetch:   0.08,
	UnitRename:  0.06,
	UnitIssue:   0.12,
	UnitRegFile: 0.10,
	UnitIntALU:  0.12,
	UnitFPU:     0.12,
	UnitL1I:     0.08,
	UnitL1D:     0.12,
	UnitL2:      0.10,
	UnitClock:   0.10,
}

// Validate checks that the weights are non-negative and sum to 1 within
// floating-point tolerance.
func (w UnitWeights) Validate() error {
	sum := 0.0
	for u, v := range w {
		if v < 0 {
			return fmt.Errorf("power: negative weight for %s", Unit(u))
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("power: unit weights sum to %v, want 1", sum)
	}
	return nil
}

// Activity holds per-unit activity factors in [0, 1] for one interval:
// the fraction of cycles each unit performed useful switching.
type Activity struct {
	Units [NumUnits]float64
}

// ActivityProfile summarises what a core did during an interval, from which
// per-unit activities are derived.
type ActivityProfile struct {
	// Utilization is the fraction of cycles the core was not stalled.
	Utilization float64
	// FPFraction is the fraction of executed instructions that are
	// floating-point.
	FPFraction float64
	// MemRefFraction is the fraction of executed instructions that access
	// the L1D.
	MemRefFraction float64
	// L2AccessFactor is the L1-miss traffic reaching the L2, normalized to
	// instructions (misses per instruction), scaled into [0, 1] activity by
	// the model.
	L2AccessFactor float64
}

// DeriveActivity maps an interval profile to per-unit activity factors,
// writing every unit of a.
//
// Execution units (ALUs, register file) gate well and track utilization and
// the instruction mix. Front-end structures do not: on a running core the
// fetch engine keeps speculating past stalls, wakeup/select logic examines
// the issue queue every cycle, and the data cache's ports and MSHRs stay
// busy servicing outstanding misses — so those units carry a structural
// baseline in addition to the utilization-tracking component. The clock tree
// always switches (its residual gating is the model's gate floor).
func DeriveActivity(p *ActivityProfile, a *Activity) {
	u := clamp01(p.Utilization)
	fp := clamp01(p.FPFraction)
	mem := clamp01(p.MemRefFraction)
	l2 := clamp01(p.L2AccessFactor)
	a.Units[UnitFetch] = 0.45 + 0.55*u
	a.Units[UnitRename] = 0.35 + 0.65*u
	a.Units[UnitIssue] = 0.50 + 0.50*u
	a.Units[UnitRegFile] = 0.25 + 0.75*u
	a.Units[UnitIntALU] = u * (1 - fp)
	a.Units[UnitFPU] = u * fp
	a.Units[UnitL1I] = 0.45 + 0.55*u
	a.Units[UnitL1D] = clamp01(0.15 + 2.5*mem)
	a.Units[UnitL2] = l2
	a.Units[UnitClock] = 1
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

// DynamicModel is the Wattch-style dynamic power model for a single core.
type DynamicModel struct {
	// CoreMaxW is the dynamic power of one core at the reference operating
	// point with all units fully active.
	CoreMaxW float64
	// Ref is the operating point at which CoreMaxW is specified (the top of
	// the DVFS table).
	Ref OperatingPoint
	// GateFloor is the fraction of a unit's power drawn when idle under the
	// linear clock-gating scheme; the paper uses 10%.
	GateFloor float64
	Weights   UnitWeights
}

// NewDynamicModel validates and returns a model.
func NewDynamicModel(coreMaxW float64, ref OperatingPoint, gateFloor float64, w UnitWeights) (*DynamicModel, error) {
	if coreMaxW <= 0 {
		return nil, errors.New("power: CoreMaxW must be positive")
	}
	if ref.FreqMHz <= 0 || ref.VoltageV <= 0 {
		return nil, errors.New("power: invalid reference operating point")
	}
	if gateFloor < 0 || gateFloor > 1 {
		return nil, errors.New("power: gate floor must be in [0,1]")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &DynamicModel{CoreMaxW: coreMaxW, Ref: ref, GateFloor: gateFloor, Weights: w}, nil
}

// Power returns the core dynamic power in watts at operating point op with
// activity a. Each unit draws
//
//	w_u · P_max · (V/V_ref)² · (f/f_ref) · (gate + (1-gate)·α_u)
//
// — the C·V²·f·α law with the linear clock-gating floor.
func (m *DynamicModel) Power(op OperatingPoint, a *Activity) float64 {
	scale := (op.VoltageV / m.Ref.VoltageV) * (op.VoltageV / m.Ref.VoltageV) * (op.FreqMHz / m.Ref.FreqMHz)
	total := 0.0
	for u := Unit(0); u < NumUnits; u++ {
		eff := m.GateFloor + (1-m.GateFloor)*clamp01(a.Units[u])
		total += m.Weights[u] * eff
	}
	return m.CoreMaxW * scale * total
}

// PowerBreakdown returns per-unit dynamic power in watts.
func (m *DynamicModel) PowerBreakdown(op OperatingPoint, a *Activity) [NumUnits]float64 {
	scale := (op.VoltageV / m.Ref.VoltageV) * (op.VoltageV / m.Ref.VoltageV) * (op.FreqMHz / m.Ref.FreqMHz)
	var out [NumUnits]float64
	for u := Unit(0); u < NumUnits; u++ {
		eff := m.GateFloor + (1-m.GateFloor)*clamp01(a.Units[u])
		out[u] = m.CoreMaxW * scale * m.Weights[u] * eff
	}
	return out
}

// FullActivity returns an Activity with every unit at 1, the condition under
// which Power equals CoreMaxW at the reference point.
func FullActivity() Activity {
	var a Activity
	for u := range a.Units {
		a.Units[u] = 1
	}
	return a
}
