package check

import (
	"fmt"
	"strings"
	"sync"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/thermal"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Scenario is the one run spec: a chip, a controller (CPM over per-island
// PICs, the open-loop MaxBIPS baseline, or none), a budget as a fraction of
// calibrated unmanaged power, and warm-up plus measured GPM epochs — the
// run behind every §IV figure. Build/BuildOn are its one constructor; the
// golden harness, cpmsim, cpmserve, cpmsweep, cpmtrace and the experiment
// harnesses all assemble their sessions through it.
//
// The set in Canonical covers every control path the paper evaluates: the
// default two-tier CPM loop, the MaxBIPS baseline, the thermal- and
// variation-aware provisioning policies, fault injection, a second point on
// the budget axis, and the adaptive/predictive extensions (adaptive-gain
// PIC, MPC-style GPM, cache-aware provisioning).
type Scenario struct {
	// Name keys the golden file (testdata/golden/<Name>.json) and labels
	// the run: the session label and the telemetry "run" label.
	Name string
	// Mix builds the workload.
	Mix func() workload.Mix
	// Variation, when non-empty, applies intra-die process variation.
	Variation variation.Map
	// Policy, when non-nil, builds the GPM provisioning policy (fresh per
	// run — policies carry history). Nil means gpm.PerformanceAware.
	Policy func() (gpm.Policy, error)
	// BudgetFrac is the §IV budget fraction of calibrated unmanaged power.
	BudgetFrac float64
	// MaxBIPS selects the open-loop MaxBIPS baseline instead of CPM. Its
	// chip-budget tolerance is widened (see Run): the planner holds
	// *predicted* power under budget, and the paper's point is precisely
	// that its realized power overshoots.
	MaxBIPS bool
	// Unmanaged selects the no-power-management baseline: every island at
	// the top DVFS level, no controller, no budget and no calibration.
	Unmanaged bool
	// Faults, when non-nil, injects the §"extension" fault plan.
	Faults *core.FaultPlan
	// GainScale multiplies the paper PID gains (0 or 1 = paper gains).
	// It exists for the harness's self-test: a perturbed controller must
	// change the golden digests.
	GainScale float64
	// Adaptive runs every PIC with the adaptive-gain estimator, seeded
	// from the scenario's own calibrated plant gain (core.Config.Adaptive).
	Adaptive bool
	// Tech, when enabled, rescales the chip to the given technology node
	// (sim.Config.Tech).
	Tech power.TechConfig
	// Classes, when non-nil, assigns per-island core classes — the
	// big.LITTLE axis (sim.Config.IslandClasses).
	Classes []power.CoreClass
	// IntervalSec is the PIC interval length (0 = the simulator's 2.5 ms);
	// GPMPeriod is the number of PIC intervals per GPM epoch (0 = 20). They
	// are the two axes of Figure 17.
	IntervalSec float64
	GPMPeriod   int
	// WarmEpochs/MeasureEpochs shape the run, taken as written: a zero
	// warm-up runs no warm intervals. Canonical spells out its 2 + 4.
	WarmEpochs    int
	MeasureEpochs int
	// WarmState, when non-nil, is a chip snapshot restored into the chip
	// before the stack is assembled — a warm-started run forks from it.
	// The bytes are only read, so many runs may share one buffer.
	WarmState []byte
	// Metrics, when non-nil, attaches a telemetry observer labelled Name,
	// wired to the built chip and (managed runs) its PICs.
	Metrics *metrics.Registry
}

// Canonical returns the eleven pinned scenarios. Names are stable — they
// key the golden files.
func Canonical() []Scenario {
	cs := []Scenario{
		{Name: "cpm-default", Mix: workload.Mix1, BudgetFrac: 0.8},
		{Name: "maxbips", Mix: workload.Mix1, BudgetFrac: 0.8, MaxBIPS: true},
		{Name: "thermal-policy", Mix: workload.ThermalMix, BudgetFrac: 0.5, Policy: thermalPolicy},
		{
			Name: "variation-aware", Mix: workload.Mix1, BudgetFrac: 0.8,
			Variation: variation.PaperIslands(2), Policy: variationPolicy,
		},
		{
			Name: "fault-noise", Mix: workload.Mix1, BudgetFrac: 0.8,
			Faults: &core.FaultPlan{UtilNoiseStd: 0.15, StuckIsland: -1, Seed: 11},
		},
		{Name: "budget-60", Mix: workload.Mix1, BudgetFrac: 0.6},
		{Name: "adaptive-pic", Mix: workload.Mix1, BudgetFrac: 0.8, Adaptive: true},
		{Name: "mpc-gpm", Mix: workload.Mix1, BudgetFrac: 0.8, Policy: mpcPolicy},
		{Name: "cache-aware", Mix: workload.Mix1, BudgetFrac: 0.7, Policy: cachePolicy},
		{
			Name: "hetero-biglittle", Mix: workload.Mix1, BudgetFrac: 0.8,
			Classes: []power.CoreClass{
				power.ClassOoO, power.ClassLittleIO, power.ClassOoO, power.ClassLittleIO,
			},
		},
		{
			Name: "tech-16nm", Mix: workload.Mix1, BudgetFrac: 0.8,
			Tech: power.TechConfig{Node: power.Node16, Variant: power.ITRS},
		},
	}
	for i := range cs {
		cs[i].WarmEpochs, cs[i].MeasureEpochs = 2, 4
	}
	return cs
}

// ScenarioNames lists the canonical scenario names, in Canonical order.
func ScenarioNames() []string {
	cs := Canonical()
	names := make([]string, len(cs))
	for i, sc := range cs {
		names[i] = sc.Name
	}
	return names
}

// ScenarioByName resolves a canonical scenario; the error lists the valid
// names. Callers that want to vary the run (budget, windows) mutate the
// returned copy before Build.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Canonical() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("check: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
}

// Defaults returns the run's warmup and measurement windows in GPM epochs,
// so external layers (the serve request normalizer) can content-address a
// run without duplicating them.
func (s Scenario) Defaults() (warmEpochs, measureEpochs int) {
	return s.WarmEpochs, s.MeasureEpochs
}

// namedPolicies is the one named GPM policy registry: cpmsweep -policy,
// the canonical scenarios and the experiment harnesses build from it.
var namedPolicies = []struct {
	name  string
	build func() (gpm.Policy, error)
}{
	{"performance", func() (gpm.Policy, error) { return &gpm.PerformanceAware{}, nil }},
	{"equal", func() (gpm.Policy, error) { return gpm.EqualShare{}, nil }},
	{"thermal", thermalPolicy},
	{"variation", variationPolicy},
	{"mpc", mpcPolicy},
	{"cache", cachePolicy},
}

// PolicyByName returns the builder of a named GPM policy; the error lists
// the valid names.
func PolicyByName(name string) (func() (gpm.Policy, error), error) {
	names := make([]string, len(namedPolicies))
	for i, p := range namedPolicies {
		if p.name == name {
			return p.build, nil
		}
		names[i] = p.name
	}
	return nil, fmt.Errorf("check: unknown policy %q (have %s)", name, strings.Join(names, ", "))
}

// thermalPolicy builds the Figure 18 constraint set over the 2x4 floorplan
// of single-core islands.
func thermalPolicy() (gpm.Policy, error) {
	fp, err := thermal.Grid(2, 4)
	if err != nil {
		return nil, err
	}
	return &gpm.ThermalAware{
		Base:                 &gpm.PerformanceAware{},
		Floorplan:            fp,
		AdjacentPairCap:      0.30,
		ConsecutiveLimit:     2,
		SoloCap:              0.20,
		SoloConsecutiveLimit: 4,
	}, nil
}

// variationPolicy builds the Figure 19 variation-aware greedy EPI policy.
func variationPolicy() (gpm.Policy, error) {
	return &gpm.VariationAware{StepFrac: 0.08, HoldIntervals: 1, MinShareFrac: 0.7}, nil
}

func mpcPolicy() (gpm.Policy, error)   { return &gpm.ModelPredictive{}, nil }
func cachePolicy() (gpm.Policy, error) { return &gpm.CacheAware{}, nil }

// scenarioCal caches calibrations across runs in one process — calibration
// dominates a short run's cost and is identical for equal keys.
var (
	scenarioCalMu sync.Mutex
	scenarioCal   = map[string]core.Calibration{}
)

// Calibration returns the chip's offline identification at seed, cached
// per process. The cache key holds every spec input calibration reads:
// mix name and island layout, variation, seed, tech node, island classes
// and interval length.
func (s Scenario) Calibration(seed uint64) (core.Calibration, error) {
	cfg := s.BuildConfig(seed)
	key := fmt.Sprintf("%s%v/var=%v/seed=%d/tech=%s/classes=%v/interval=%g",
		cfg.Mix.Name, cfg.Mix.Islands, cfg.Variation, cfg.Seed, cfg.Tech, cfg.IslandClasses, cfg.IntervalSec)
	scenarioCalMu.Lock()
	cal, ok := scenarioCal[key]
	scenarioCalMu.Unlock()
	if ok {
		return cal, nil
	}
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		return core.Calibration{}, err
	}
	scenarioCalMu.Lock()
	scenarioCal[key] = cal
	scenarioCalMu.Unlock()
	return cal, nil
}

// Run executes the scenario under the full standard invariant suite plus
// any extra observers (e.g. a Golden recorder), returning the summary and
// the suite for violation inspection.
func (s Scenario) Run(seed uint64, extra ...engine.Observer) (engine.Summary, *Suite, error) {
	sess, suite, err := s.Build(seed, extra...)
	if err != nil {
		return engine.Summary{}, nil, err
	}
	return sess.Run(), suite, nil
}

// Build constructs the scenario's full stack — chip, controller or
// baseline, invariant suite, session — without running it. Construction is
// deterministic in (scenario, seed): two Builds produce process-equivalent
// stacks, which is what lets a snapshot taken mid-run in one stack be
// restored into a fresh one (checkpoint/resume, warm-started sweeps) and
// continue bit-identically.
func (s Scenario) Build(seed uint64, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	cmp, err := sim.New(s.BuildConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	return s.BuildOn(cmp, seed, extra...)
}

// BuildConfig returns the chip configuration Build simulates for seed —
// the input a farm needs to construct an equivalent record-driven chip.
func (s Scenario) BuildConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(s.Mix())
	cfg.Seed = seed
	cfg.Variation = s.Variation
	cfg.Tech = s.Tech
	cfg.IslandClasses = s.Classes
	if s.IntervalSec > 0 {
		cfg.IntervalSec = s.IntervalSec
	}
	if s.Unmanaged {
		cfg.InitialLevel = -1
	}
	return cfg
}

// BuildOn assembles the scenario's stack over a caller-supplied chip built
// from BuildConfig(seed) — a farm member (sim.NewWithRecords) or a replay
// chip (sim.NewReplay).
// WarmState, when set, is restored into the chip first. The stack carries
// its invariant suite and, with Metrics set, its telemetry observer, ahead
// of extra.
func (s Scenario) BuildOn(cmp *sim.CMP, seed uint64, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	if s.MaxBIPS && s.Unmanaged {
		return nil, nil, fmt.Errorf("check: scenario %q is both MaxBIPS and unmanaged", s.Name)
	}
	if s.WarmState != nil {
		if err := cmp.Restore(snapshot.NewDecoder(s.WarmState)); err != nil {
			return nil, nil, fmt.Errorf("check: restoring %s warm state: %w", s.Name, err)
		}
	}
	period := s.GPMPeriod
	if period <= 0 {
		period = 20
	}
	var (
		runner engine.Runner
		suite  *Suite
		pics   []*pic.Controller
		budget float64
	)
	if s.Unmanaged {
		runner, suite = engine.NewChipRunner(cmp), All(ForChip(cmp, 0))
	} else {
		cal, err := s.Calibration(seed)
		if err != nil {
			return nil, nil, err
		}
		budget = cal.BudgetW(s.BudgetFrac)
		if s.MaxBIPS {
			runner, suite, err = s.maxBIPS(cmp, budget, period)
		} else {
			runner, suite, pics, err = s.cpm(cmp, cal, budget, period)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	obs := []engine.Observer{suite}
	if s.Metrics != nil {
		obs = append(obs, metrics.NewObserver(s.Metrics, metrics.ObserverOptions{Label: s.Name, Chip: cmp, PICs: pics}))
	}
	sess, err := engine.NewSession(runner, engine.SessionConfig{
		WarmEpochs:    s.WarmEpochs,
		MeasureEpochs: s.MeasureEpochs,
		Period:        period,
		BudgetW:       budget,
		Label:         s.Name,
	}, append(obs, extra...)...)
	if err != nil {
		return nil, nil, err
	}
	return sess, suite, nil
}

// RunBatch runs scenarios at seed as one farm batch and returns their
// summaries and invariant suites in scenario order. Scenarios sharing a
// workload key (farm.KeyOf) share one sampler, so a batch of budget points
// or controllers over one workload pays the sampling cost of a single run;
// each run is bit-identical to the scenario's own Run. The sampler groups
// step one after another on one worker, so runs that record into one
// metrics registry under one label do so in the same order every time.
// samplerState, when non-nil, is restored into the batch's one sampler
// (farm.Options.SamplerState); onProgress, when non-nil, is told how many
// runs have finished.
func RunBatch(scs []Scenario, seed uint64, samplerState []byte, onProgress func(done, total int)) ([]engine.Summary, []*Suite, error) {
	specs := make([]farm.ChipSpec, len(scs))
	suites := make([]*Suite, len(scs))
	for i, sc := range scs {
		specs[i] = farm.ChipSpec{
			Config: sc.BuildConfig(seed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, suite, err := sc.BuildOn(cmp, seed)
				suites[i] = suite
				return sess, err
			},
		}
	}
	f, err := farm.New(specs, farm.Options{SamplerState: samplerState})
	if err != nil {
		return nil, nil, err
	}
	sums, err := f.Run(engine.Pool{Workers: 1}, onProgress)
	if err != nil {
		return nil, nil, err
	}
	return sums, suites, nil
}

// cpm wires the two-tier controller and its suite.
func (s Scenario) cpm(cmp *sim.CMP, cal core.Calibration, budget float64, period int) (engine.Runner, *Suite, []*pic.Controller, error) {
	var err error
	var policy gpm.Policy
	if s.Policy != nil {
		if policy, err = s.Policy(); err != nil {
			return nil, nil, nil, err
		}
	}
	gains := control.PaperGains
	if s.GainScale != 0 && s.GainScale != 1 {
		gains = control.Gains{
			KP: control.PaperGains.KP * s.GainScale,
			KI: control.PaperGains.KI * s.GainScale,
			KD: control.PaperGains.KD * s.GainScale,
		}
	}
	var adaptive *pic.AdaptiveConfig
	if s.Adaptive {
		// Seed the estimator from the same sysid fit the scenario already
		// paid for; every AdaptiveConfig default is otherwise canonical.
		adaptive = &pic.AdaptiveConfig{SeedGain: cal.PlantGain}
	}
	ctl, err := core.New(cmp, core.Config{
		BudgetW:     budget,
		Policy:      policy,
		GPMPeriod:   period,
		Gains:       gains,
		Transducers: cal.Transducers,
		Faults:      s.Faults,
		Adaptive:    adaptive,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ccfg := ForChip(cmp, budget)
	if breaksBudget(s.Faults) {
		// A biased sensor, a stuck actuator or a skipped GPM epoch breaks
		// the provisioning contract by design; every other invariant must
		// still hold under it. Sensor noise alone keeps the check.
		ccfg.BudgetW = 0
	}
	pics := make([]*pic.Controller, cmp.NumIslands())
	for i := range pics {
		pics[i] = ctl.PIC(i)
	}
	return engine.NewCPMRunner(ctl), ForCPMWithConfig(ctl, ccfg), pics, nil
}

// breaksBudget reports whether a fault plan injects a fault that defeats
// budget conservation.
func breaksBudget(f *core.FaultPlan) bool {
	return f != nil && ((f.UtilBiasMult != 0 && f.UtilBiasMult != 1) || f.StuckIsland >= 0 || f.DropGPMProb > 0)
}

// maxBIPS wires the static-table MaxBIPS baseline and its suite.
func (s Scenario) maxBIPS(cmp *sim.CMP, budget float64, period int) (engine.Runner, *Suite, error) {
	planner, err := engine.NewStaticPlanner(cmp)
	if err != nil {
		return nil, nil, err
	}
	r, err := engine.NewMaxBIPSRunner(cmp, planner, budget, period)
	if err != nil {
		return nil, nil, err
	}
	// MaxBIPS plans open-loop from static predictions; realized power
	// overshooting the budget is the paper's headline result for it, not a
	// bug. Keep the budget check but widen its tolerance to the overshoot
	// the paper itself reports (up to ~20%); everything else stays strict.
	ccfg := ForChip(cmp, budget)
	ccfg.BudgetTolFrac = 0.25
	ccfg.IslandTolFrac = 0.25
	return r, All(ccfg), nil
}
