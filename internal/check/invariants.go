package check

import (
	"math"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/thermal"
)

// BudgetConservation checks the provisioning invariant of §II-C at both
// tiers: at every GPM invocation the allocations are non-negative and sum
// to no more than the chip budget (the Manager's contract), and once the
// loop has settled every measured epoch's island power stays under its
// provision and chip power under the global budget, within the quantization
// tolerance a discrete DVFS actuator imposes.
type BudgetConservation struct {
	recorder
	budgetW    float64
	islandMaxW []float64
	settle     int
	chipTol    float64
	islandTol  float64
}

// NewBudgetConservation builds the check from cfg (BudgetW must be > 0).
func NewBudgetConservation(cfg Config) *BudgetConservation {
	return &BudgetConservation{
		recorder:   recorder{name: "budget-conservation"},
		budgetW:    cfg.BudgetW,
		islandMaxW: cfg.IslandMaxW,
		settle:     settleEpochs,
		chipTol:    cfg.budgetTol(),
		islandTol:  cfg.islandTol(),
	}
}

// RunStart implements engine.Observer.
func (c *BudgetConservation) RunStart(engine.RunInfo) {}

// ObserveStep implements engine.Observer: the GPM-tier invariant holds at
// every provision, warmup included.
func (c *BudgetConservation) ObserveStep(st engine.Step) {
	if !st.GPMInvoked || st.AllocW == nil {
		return
	}
	sum := 0.0
	for i, a := range st.AllocW {
		if a < 0 || math.IsNaN(a) {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: a, Bound: 0,
				Msg: "negative or NaN island allocation",
			})
			continue
		}
		sum += a
	}
	// The Manager clips oversubscription exactly, so the only slack needed
	// is floating-point summation noise.
	if lim := c.budgetW * (1 + 1e-9); sum > lim {
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: sum, Bound: c.budgetW,
			Msg: "GPM provisioned more than the chip budget",
		})
	}
}

// ObserveEpoch implements engine.Observer: the settled-power invariant is
// judged on epoch means, the granularity the paper's tracking plots use.
func (c *BudgetConservation) ObserveEpoch(e engine.Epoch) {
	if e.Index < c.settle {
		return
	}
	if lim := c.budgetW * (1 + c.chipTol); e.MeanPowerW > lim {
		c.report(Violation{
			Interval: -1, Epoch: e.Index, Island: -1,
			Observed: e.MeanPowerW, Bound: lim,
			Msg: "post-settle chip power above global budget",
		})
	}
	if e.AllocW == nil {
		return
	}
	for i, p := range e.IslandPowerW {
		if i >= len(e.AllocW) {
			break
		}
		slack := 0.0
		if i < len(c.islandMaxW) {
			slack = c.islandTol * c.islandMaxW[i]
		} else {
			slack = c.chipTol * math.Max(e.AllocW[i], 1)
		}
		if lim := e.AllocW[i] + slack; p > lim {
			c.report(Violation{
				Interval: -1, Epoch: e.Index, Island: i,
				Observed: p, Bound: lim,
				Msg: "post-settle island power above its provision",
			})
		}
	}
}

// RunEnd implements engine.Observer.
func (c *BudgetConservation) RunEnd(*engine.Summary) {}

// DVFSLegality checks the actuation invariant of §II-B: every observed
// operating point is an entry of the island's DVFS table (never an
// interpolated or out-of-range frequency), and transition overheads are
// charged exactly when the operating point changes — the knob's contract
// with the simulator.
type DVFSLegality struct {
	recorder
	tables   []*power.DVFSTable
	prevFreq []float64
	havePrev bool
}

// NewDVFSLegality builds the check over the chip's per-island tables:
// island i's operating points are judged against tables[i].
func NewDVFSLegality(tables []*power.DVFSTable) *DVFSLegality {
	return &DVFSLegality{recorder: recorder{name: "dvfs-legality"}, tables: tables}
}

// RunStart implements engine.Observer.
func (c *DVFSLegality) RunStart(info engine.RunInfo) {
	c.prevFreq = make([]float64, info.Islands)
	c.havePrev = false
}

// ObserveStep implements engine.Observer.
func (c *DVFSLegality) ObserveStep(st engine.Step) {
	for i, ir := range st.Sim.Islands {
		tbl := c.tables[i]
		lvl, ok := tbl.LevelOf(ir.FreqMHz)
		if !ok {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: ir.FreqMHz, Bound: tbl.Max().FreqMHz,
				Msg: "actuated frequency is not a table operating point",
			})
		} else if lvl != ir.Level {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: float64(ir.Level), Bound: float64(lvl),
				Msg: "reported level disagrees with actuated frequency",
			})
		}
		if ir.Level < 0 || ir.Level >= tbl.Levels() {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: float64(ir.Level), Bound: float64(tbl.Levels() - 1),
				Msg: "DVFS level outside the table",
			})
		}
		if c.havePrev && i < len(c.prevFreq) {
			changed := ir.FreqMHz != c.prevFreq[i]
			if changed != ir.Transitioned {
				c.report(Violation{
					Interval: st.Index, Epoch: -1, Island: i,
					Observed: ir.FreqMHz, Bound: c.prevFreq[i],
					Msg: "transition overhead disagrees with operating-point change",
				})
			}
		}
		if i < len(c.prevFreq) {
			c.prevFreq[i] = ir.FreqMHz
		}
	}
	c.havePrev = true
}

// ObserveEpoch implements engine.Observer.
func (c *DVFSLegality) ObserveEpoch(engine.Epoch) {}

// RunEnd implements engine.Observer.
func (c *DVFSLegality) RunEnd(*engine.Summary) {}

// ThermalEnvelope checks that the RC thermal model stays inside its
// physically plausible operating envelope: temperatures are finite, never
// below ambient, never above the steady-state bound for the worst per-core
// dissipation, and never move faster per interval than the forward-Euler
// dynamics allow — the early-warning signal for an unstable integration or
// a corrupted power input (the regime Figure 18's policy exists to avoid).
type ThermalEnvelope struct {
	recorder
	cfg      thermal.Config
	maxTempC float64
	maxStepC float64
	prevTemp float64
	havePrev bool
	maxCoreW float64
}

// NewThermalEnvelope derives the envelope from the RC configuration and the
// worst-case per-core power.
func NewThermalEnvelope(cfg thermal.Config, maxCoreW float64) *ThermalEnvelope {
	return &ThermalEnvelope{
		recorder: recorder{name: "thermal-envelope"},
		cfg:      cfg,
		maxCoreW: maxCoreW,
		// Headroom factor 1.25: leakage grows with temperature, so a hot
		// core can briefly dissipate somewhat more than the nominal
		// maximum; 2 °C absolute covers Euler discretization overshoot.
		maxTempC: cfg.MaxSteadyTempC(1.25*maxCoreW) + 2,
	}
}

// RunStart implements engine.Observer.
func (c *ThermalEnvelope) RunStart(info engine.RunInfo) {
	c.havePrev = false
	c.maxStepC = 1.5 * c.cfg.MaxStepDeltaC(1.25*c.maxCoreW, info.IntervalSec)
}

// ObserveStep implements engine.Observer.
func (c *ThermalEnvelope) ObserveStep(st engine.Step) {
	t := st.Sim.MaxTempC
	switch {
	case math.IsNaN(t) || math.IsInf(t, 0):
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: t, Bound: c.maxTempC,
			Msg: "non-finite temperature",
		})
	case t < c.cfg.AmbientC-1e-6:
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: t, Bound: c.cfg.AmbientC,
			Msg: "temperature below ambient",
		})
	case t > c.maxTempC:
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: t, Bound: c.maxTempC,
			Msg: "temperature above steady-state envelope",
		})
	}
	if c.havePrev && c.maxStepC > 0 {
		if d := math.Abs(t - c.prevTemp); d > c.maxStepC {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: -1,
				Observed: d, Bound: c.maxStepC,
				Msg: "per-interval temperature change exceeds RC dynamics",
			})
		}
	}
	c.prevTemp = t
	c.havePrev = true
}

// ObserveEpoch implements engine.Observer.
func (c *ThermalEnvelope) ObserveEpoch(engine.Epoch) {}

// RunEnd implements engine.Observer.
func (c *ThermalEnvelope) RunEnd(*engine.Summary) {}

// Accounting checks conservation and monotonicity of the bookkeeping
// quantities: island powers and throughputs are non-negative and finite and
// sum exactly to the chip aggregates, instruction counts only accumulate,
// interval indices advance by one, BIPS agrees with the instruction count
// over the interval, and the session summary agrees with an independent
// re-aggregation of the measured steps.
type Accounting struct {
	recorder
	maxChipW    float64
	intervalSec float64
	prevIndex   int
	havePrev    bool

	// independent re-aggregation of the measurement window
	measSteps  int
	sumPowerW  float64
	sumInstr   float64
	epochCount int

	// resumed marks a run restored from a mid-run snapshot: the check only
	// observes the tail, so whole-window reconciliation and the epoch
	// origin cannot hold and are stood down (per-step checks stay strict).
	resumed     bool
	resumeEpoch bool // next observed epoch index is accepted as the origin
}

// NewAccounting builds the check; maxChipW of 0 skips the chip-power-frac
// consistency sub-check.
func NewAccounting(maxChipW float64) *Accounting {
	return &Accounting{recorder: recorder{name: "accounting"}, maxChipW: maxChipW}
}

// RunStart implements engine.Observer.
func (c *Accounting) RunStart(info engine.RunInfo) {
	c.intervalSec = info.IntervalSec
	c.havePrev = false
	c.measSteps, c.sumPowerW, c.sumInstr, c.epochCount = 0, 0, 0, 0
	c.resumed, c.resumeEpoch = false, false
}

// RunResumed implements engine.ResumeAware.
func (c *Accounting) RunResumed(int) {
	c.resumed, c.resumeEpoch = true, true
}

// relTol is the relative slack for float re-aggregation checks: the
// reductions run in a fixed order, so only representation error accumulates.
const relTol = 1e-9

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// ObserveStep implements engine.Observer.
func (c *Accounting) ObserveStep(st engine.Step) {
	if c.havePrev && st.Sim.Interval != c.prevIndex+1 {
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: float64(st.Sim.Interval), Bound: float64(c.prevIndex + 1),
			Msg: "simulator interval counter skipped",
		})
	}
	c.prevIndex = st.Sim.Interval
	c.havePrev = true

	var powSum, bipsSum float64
	for i, ir := range st.Sim.Islands {
		bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
		if bad(ir.PowerW) || bad(ir.BIPS) || bad(ir.Instructions) {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: math.Min(ir.PowerW, math.Min(ir.BIPS, ir.Instructions)), Bound: 0,
				Msg: "negative or non-finite island power/BIPS/instructions",
			})
		}
		if c.intervalSec > 0 && !closeRel(ir.BIPS, ir.Instructions/c.intervalSec/1e9, 1e-6) {
			c.report(Violation{
				Interval: st.Index, Epoch: -1, Island: i,
				Observed: ir.BIPS, Bound: ir.Instructions / c.intervalSec / 1e9,
				Msg: "island BIPS disagrees with instructions over the interval",
			})
		}
		powSum += ir.PowerW
		bipsSum += ir.BIPS
	}
	if !closeRel(powSum, st.Sim.ChipPowerW, relTol) {
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: st.Sim.ChipPowerW, Bound: powSum,
			Msg: "chip power does not equal the sum of island powers",
		})
	}
	if !closeRel(bipsSum, st.Sim.TotalBIPS, relTol) {
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: st.Sim.TotalBIPS, Bound: bipsSum,
			Msg: "chip BIPS does not equal the sum of island BIPS",
		})
	}
	if c.maxChipW > 0 && !closeRel(st.Sim.ChipPowerFrac*c.maxChipW, st.Sim.ChipPowerW, relTol) {
		c.report(Violation{
			Interval: st.Index, Epoch: -1, Island: -1,
			Observed: st.Sim.ChipPowerFrac * c.maxChipW, Bound: st.Sim.ChipPowerW,
			Msg: "chip power fraction inconsistent with chip power",
		})
	}
	if !st.Measured {
		return
	}
	c.measSteps++
	c.sumPowerW += st.Sim.ChipPowerW
	for _, ir := range st.Sim.Islands {
		c.sumInstr += ir.Instructions
	}
}

// ObserveEpoch implements engine.Observer.
func (c *Accounting) ObserveEpoch(e engine.Epoch) {
	if c.resumeEpoch {
		c.epochCount = e.Index
		c.resumeEpoch = false
	}
	if e.Index != c.epochCount {
		c.report(Violation{
			Interval: -1, Epoch: e.Index, Island: -1,
			Observed: float64(e.Index), Bound: float64(c.epochCount),
			Msg: "epoch index skipped",
		})
	}
	c.epochCount = e.Index + 1
	if e.Instructions < 0 {
		c.report(Violation{
			Interval: -1, Epoch: e.Index, Island: -1,
			Observed: e.Instructions, Bound: 0,
			Msg: "negative epoch instruction count",
		})
	}
}

// RunEnd implements engine.Observer: the summary must agree with the
// check's own re-aggregation of the measured steps.
func (c *Accounting) RunEnd(sum *engine.Summary) {
	if sum == nil || c.measSteps == 0 || c.resumed {
		return
	}
	if !closeRel(sum.MeanPowerW, c.sumPowerW/float64(c.measSteps), relTol) {
		c.report(Violation{
			Interval: -1, Epoch: -1, Island: -1,
			Observed: sum.MeanPowerW, Bound: c.sumPowerW / float64(c.measSteps),
			Msg: "summary mean power disagrees with re-aggregated steps",
		})
	}
	if !closeRel(sum.Instructions, c.sumInstr, relTol) {
		c.report(Violation{
			Interval: -1, Epoch: -1, Island: -1,
			Observed: sum.Instructions, Bound: c.sumInstr,
			Msg: "summary instruction total disagrees with re-aggregated steps",
		})
	}
	if len(sum.Epochs) != c.epochCount {
		c.report(Violation{
			Interval: -1, Epoch: -1, Island: -1,
			Observed: float64(len(sum.Epochs)), Bound: float64(c.epochCount),
			Msg: "summary epoch count disagrees with observed epochs",
		})
	}
}
