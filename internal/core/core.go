// Package core implements CPM — the paper's Coordinated Power Management
// architecture: the two-tier composition of a Global Power Manager and
// per-island PID controllers over a voltage/frequency-island CMP
// (Figures 3 and 4).
//
// The timeline follows Figure 4: every GPMPeriod PIC intervals the GPM
// provisions the chip budget across islands from the epoch's aggregate
// observations; every interval each PIC converts its island's measured
// utilization to estimated power, compares it to its provision, and actuates
// the island's DVFS knob. Because each PIC caps its island at the
// provisioned value and the GPM never provisions more than the budget, the
// chip tracks the global budget without any central power measurement.
package core

import (
	"errors"
	"fmt"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sensor"
	"github.com/cpm-sim/cpm/internal/sim"
)

// Config parameterizes a CPM instance.
type Config struct {
	// Gains are the PIC design parameters (control.PaperGains by default).
	Gains control.Gains
	// GPMPeriod is the number of PIC intervals per GPM invocation
	// (default 20: 50 ms over 2.5 ms intervals, as in §III).
	GPMPeriod int
	// Policy is the GPM provisioning policy (performance-aware by default).
	Policy gpm.Policy
	// BudgetW is the chip power budget in watts.
	BudgetW float64
	// Transducers are the per-island utilization→power estimators from
	// calibration. Length must match the island count unless
	// UseOraclePower is set.
	Transducers []sensor.Estimator
	// UseOraclePower feeds measured power directly to the PICs (ablation).
	UseOraclePower bool
	// SmoothAlpha is passed to every PIC (see pic.Config.SmoothAlpha).
	SmoothAlpha float64
	// Adaptive, when non-nil, runs every PIC with the adaptive-gain
	// estimator (see pic.AdaptiveConfig): Gains become design gains that
	// the RLS plant-gain estimate rescales online, with the Jury-criterion
	// guard falling back to the paper's fixed gains.
	Adaptive *pic.AdaptiveConfig
	// Faults optionally injects sensor/actuator faults (robustness
	// studies). StuckIsland of 0 is a valid island, so construct plans with
	// StuckIsland: -1 when no actuator fault is wanted — or leave the whole
	// field nil.
	Faults *FaultPlan
}

// StepResult is one managed interval's outcome.
//
// Sim.Islands and AllocW alias scratch buffers that Step overwrites every
// interval; a caller retaining a StepResult across steps must Clone it.
type StepResult struct {
	// Sim is the simulator's observation for the interval.
	Sim sim.Result
	// AllocW is the per-island provision in force during the interval.
	AllocW []float64
	// GPMInvoked reports whether this interval began a new GPM epoch.
	GPMInvoked bool
	// GPMObs holds the island observations the GPM provisioned from on a
	// GPMInvoked interval (nil otherwise), as the policy left them.
	GPMObs []gpm.IslandObs
}

// Clone returns a deep copy independent of the controller's and chip's
// scratch buffers, safe to retain across Steps.
func (r StepResult) Clone() StepResult {
	r.Sim = r.Sim.Clone()
	r.AllocW = append([]float64(nil), r.AllocW...)
	r.GPMObs = append([]gpm.IslandObs(nil), r.GPMObs...)
	return r
}

// CPM couples a simulated chip with the two-tier controller.
type CPM struct {
	cfg Config
	cmp *sim.CMP
	mgr *gpm.Manager
	pic []*pic.Controller

	alloc    []float64
	resAlloc []float64 // reused backing array of StepResult.AllocW
	haveMeas bool
	lastUtil []float64
	lastPowW []float64

	// epoch accumulators for GPM observations
	accPow, accBIPS []float64
	accN            int
	interval        int

	// Cache-signal plumbing, active only when the policy chain asks for it
	// (gpm.WantsCacheSignals): curCache latches the cumulative per-island
	// cache counters right after each chip step — the interval a chip over
	// a sim.Sampler reads its counters at, and the one point where chips
	// that read a shared sampler's current counters in lockstep all see
	// it at the same position — and prevCache holds the latch from the
	// last GPM invocation so the next one observes epoch deltas.
	wantCache bool
	curCache  []sim.CacheStats
	prevCache []sim.CacheStats

	faults *faultState
}

// New wires a CPM over the given chip.
func New(cmp *sim.CMP, cfg Config) (*CPM, error) {
	if cmp == nil {
		return nil, errors.New("core: nil chip")
	}
	if cfg.BudgetW <= 0 {
		return nil, errors.New("core: non-positive budget")
	}
	if cfg.GPMPeriod <= 0 {
		cfg.GPMPeriod = 20
	}
	if cfg.Policy == nil {
		cfg.Policy = &gpm.PerformanceAware{}
	}
	n := cmp.NumIslands()
	if !cfg.UseOraclePower && len(cfg.Transducers) != n {
		return nil, fmt.Errorf("core: %d transducers for %d islands", len(cfg.Transducers), n)
	}
	mgr, err := gpm.NewManager(cfg.Policy, cfg.BudgetW)
	if err != nil {
		return nil, err
	}
	c := &CPM{
		cfg:      cfg,
		cmp:      cmp,
		mgr:      mgr,
		alloc:    make([]float64, n),
		lastUtil: make([]float64, n),
		lastPowW: make([]float64, n),
		accPow:   make([]float64, n),
		accBIPS:  make([]float64, n),
	}
	if cfg.Faults != nil && cfg.Faults.enabled() {
		c.faults = newFaultState(*cfg.Faults)
	}
	if gpm.WantsCacheSignals(cfg.Policy) {
		c.wantCache = true
		c.curCache = make([]sim.CacheStats, n)
		c.prevCache = make([]sim.CacheStats, n)
	}
	for i := 0; i < n; i++ {
		var tr sensor.Estimator
		if !cfg.UseOraclePower {
			tr = cfg.Transducers[i]
		}
		p, err := pic.New(pic.Config{
			Gains:          cfg.Gains,
			Table:          cmp.IslandTable(i),
			IslandMaxW:     cmp.IslandMaxPowerW(i),
			Transducer:     tr,
			UseOraclePower: cfg.UseOraclePower,
			SmoothAlpha:    cfg.SmoothAlpha,
			Adaptive:       cfg.Adaptive,
		}, cmp.Level(i))
		if err != nil {
			return nil, err
		}
		c.pic = append(c.pic, p)
		c.alloc[i] = cfg.BudgetW / float64(n) // Pᵢ(0) = P_target/N
		p.SetTargetWatts(c.alloc[i])
	}
	return c, nil
}

// Chip returns the managed simulator instance.
func (c *CPM) Chip() *sim.CMP { return c.cmp }

// Manager returns the GPM.
func (c *CPM) Manager() *gpm.Manager { return c.mgr }

// PIC returns island i's per-island controller, for attaching telemetry
// hooks (see pic.Controller.AddInvokeHook).
func (c *CPM) PIC(i int) *pic.Controller { return c.pic[i] }

// AllocW returns the current per-island provisions in watts (live slice;
// callers must not modify).
func (c *CPM) AllocW() []float64 { return c.alloc }

// SetBudgetW changes the chip budget at the next GPM invocation.
func (c *CPM) SetBudgetW(w float64) { c.mgr.SetBudgetW(w) }

// Step advances the managed chip one PIC interval. The returned StepResult
// aliases scratch buffers valid until the next Step (see StepResult.Clone).
func (c *CPM) Step() StepResult {
	c.resAlloc = append(c.resAlloc[:0], c.alloc...)
	res := StepResult{AllocW: c.resAlloc}

	// GPM at epoch boundaries (Figure 4), once measurements exist.
	gpmDue := c.interval%c.cfg.GPMPeriod == 0 && c.accN > 0
	if gpmDue && c.faults != nil && c.faults.dropGPM() {
		gpmDue = false
	}
	if gpmDue {
		obs := make([]gpm.IslandObs, c.cmp.NumIslands())
		for i := range obs {
			obs[i] = gpm.IslandObs{
				Island:    i,
				AllocW:    c.alloc[i],
				PowerW:    c.accPow[i] / float64(c.accN),
				BIPS:      c.accBIPS[i] / float64(c.accN),
				MaxPowerW: c.cmp.IslandMaxPowerW(i),
				LeakMult:  c.cmp.IslandLeakMult(i),
				Level:     c.cmp.Level(i),
			}
			if c.wantCache {
				// curCache was latched right after the last chip step, so
				// the deltas cover exactly the epoch that just ended.
				cur, prev := c.curCache[i], c.prevCache[i]
				obs[i].L2Accesses = float64(cur.L2.Accesses - prev.L2.Accesses)
				obs[i].L2Misses = float64(cur.L2.Misses - prev.L2.Misses)
				obs[i].L1DAccesses = float64(cur.L1D.Accesses - prev.L1D.Accesses)
				obs[i].L1DMisses = float64(cur.L1D.Misses - prev.L1D.Misses)
				c.prevCache[i] = cur
			}
		}
		c.alloc = c.mgr.Provision(obs)
		for i, p := range c.pic {
			p.SetTargetWatts(c.alloc[i])
		}
		for i := range c.accPow {
			c.accPow[i], c.accBIPS[i] = 0, 0
		}
		c.accN = 0
		res.GPMInvoked = true
		res.GPMObs = obs
		res.AllocW = append(res.AllocW[:0], c.alloc...)
	}

	// PIC invocations use the previous interval's measurements.
	if c.haveMeas {
		for i, p := range c.pic {
			util := c.lastUtil[i]
			if c.faults != nil {
				util = c.faults.corruptUtil(util)
			}
			lvl := p.Invoke(util, c.lastPowW[i])
			if c.faults != nil {
				lvl = c.faults.overrideLevel(i, lvl)
			}
			c.cmp.SetLevel(i, lvl)
		}
	}

	r := c.cmp.Step()
	for i, ir := range r.Islands {
		c.lastUtil[i] = ir.MeanUtil
		c.lastPowW[i] = ir.PowerW
		// The GPM, like the PICs, has no power sensor: it observes the
		// transducer estimate, which is also what lets it notice an island
		// that cannot spend its allocation (§II-C's starvation discussion).
		// The oracle ablation feeds measured power throughout instead.
		est := ir.PowerW
		if !c.cfg.UseOraclePower {
			est = c.cfg.Transducers[i].EstimatePowerFrac(ir.MeanUtil, ir.Level) * c.cmp.IslandMaxPowerW(i)
		}
		c.accPow[i] += est
		c.accBIPS[i] += ir.BIPS
	}
	if c.wantCache {
		// Latch cumulative counters now, not lazily at the next GPM
		// boundary: a sampler shared in lockstep advances once per round,
		// and immediately after a member's own step is the one moment its
		// position is the same for every member (and for the scalar path)
		// — see the struct comment.
		for i := range c.curCache {
			c.curCache[i] = c.cmp.IslandCacheStats(i)
		}
	}
	c.accN++
	c.haveMeas = true
	c.interval++
	res.Sim = r
	return res
}

// Run advances n intervals, returning every step result. Results are cloned
// out of the per-step scratch buffers, so the slice is safe to keep.
func (c *CPM) Run(n int) []StepResult {
	out := make([]StepResult, n)
	for i := range out {
		out[i] = c.Step().Clone()
	}
	return out
}
