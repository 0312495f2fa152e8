package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Extensions beyond the paper's evaluation (DESIGN.md §6): the policies and
// studies §II-C declares feasible but does not evaluate, plus the
// robustness experiments the control-theoretic framing invites.

func init() {
	register(Definition{
		ID:    "ext1",
		Title: "Energy-aware provisioning with a performance floor (extension)",
		Paper: "§II-C sketch: \"policies for reducing energy consumption by providing a minimum guarantee on the performance ... are also feasible\"",
		Run:   runExt1,
	})
	register(Definition{
		ID:    "ext2",
		Title: "Robustness under injected sensor/actuator faults (extension)",
		Paper: "§II-D claim: formal feedback control keeps behaviour predictable under mis-prediction and disturbance, unlike open-loop heuristics",
		Run:   runExt2,
	})
	register(Definition{
		ID:    "ext3",
		Title: "GPM expectation exponent: Eq. 4 cube root vs calibrated elasticity (extension)",
		Paper: "Eq. 1/4 idealize P ∝ f³; a calibrated exponent matches the plant actually identified",
		Run:   runExt3,
	})
}

// runExt1 sweeps the performance floor of the energy-aware policy and
// reports the energy/performance frontier it traces.
func runExt1(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	sc.BudgetFrac, sc.WarmEpochs, sc.MeasureEpochs = 1.0, 8, o.epochs(20)
	floors := []float64{0.85, 0.90, 0.95}
	var scs []check.Scenario
	for _, floor := range floors {
		floorBIPS := floor * cal.UnmanagedBIPS
		sc.Policy = func() (gpm.Policy, error) { return &gpm.EnergyAware{FloorBIPS: floorBIPS}, nil }
		scs = append(scs, sc)
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	var rows [][]string
	set := trace.NewSet("performance floor (% of unmanaged)")
	metrics := map[string]float64{}
	for _, floor := range floors {
		sum := res.next()
		powerFrac := sum.MeanPowerW / cal.UnmanagedPowerW
		bipsFrac := sum.MeanBIPS / cal.UnmanagedBIPS
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", floor*100),
			fmt.Sprintf("%.1f W (%.0f%%)", sum.MeanPowerW, powerFrac*100),
			fmt.Sprintf("%.2f (%.0f%%)", sum.MeanBIPS, bipsFrac*100),
		})
		set.Get("power").Append(powerFrac * 100)
		set.Get("throughput").Append(bipsFrac * 100)
		key := fmt.Sprintf("floor%.0f", floor*100)
		metrics[key+"_power_frac"] = powerFrac
		metrics[key+"_bips_frac"] = bipsFrac
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Energy-aware policy on Mix-1 (unmanaged: %.1f W, %.2f BIPS):\n\n", cal.UnmanagedPowerW, cal.UnmanagedBIPS)
	b.WriteString(trace.Table([]string{"Perf floor", "Mean power", "Mean throughput"}, rows))
	b.WriteString("\nLower floors buy larger energy savings; the guarantee holds by construction\n(budget recovery is faster than decay).\n")
	return Result{
		ID:      "ext1",
		Title:   "Extension: energy-aware provisioning",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"ext1": set},
		Metrics: metrics,
	}, nil
}

// runExt2 measures budget tracking under the fault plans of
// core.FaultPlan.
func runExt2(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	budget := cal.BudgetW(0.8)
	sc.BudgetFrac, sc.WarmEpochs, sc.MeasureEpochs = 0.8, 7, o.epochs(16)
	cases := []struct {
		name string
		plan *core.FaultPlan
	}{
		{"fault-free", nil},
		{"15% sensor noise", &core.FaultPlan{UtilNoiseStd: 0.15, StuckIsland: -1, Seed: 11}},
		{"+10% sensor bias", &core.FaultPlan{UtilBiasMult: 1.10, StuckIsland: -1, Seed: 12}},
		{"island 0 stuck at top", &core.FaultPlan{StuckIsland: 0, StuckLevel: 7, Seed: 13}},
		{"50% GPM drops", &core.FaultPlan{DropGPMProb: 0.5, StuckIsland: -1, Seed: 14}},
	}
	scs := make([]check.Scenario, len(cases))
	for i, cse := range cases {
		scs[i] = sc
		scs[i].Faults = cse.plan
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	var rows [][]string
	metrics := map[string]float64{}
	for i, cse := range cases {
		mean := res.next().MeanPowerW
		errFrac := (mean - budget) / budget
		rows = append(rows, []string{cse.name, fmt.Sprintf("%.1f W", mean), fmt.Sprintf("%+.1f%%", errFrac*100)})
		metrics[fmt.Sprintf("err_case%d", i)] = math.Abs(errFrac)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Budget tracking at %.1f W (80%%) under injected faults:\n\n", budget)
	b.WriteString(trace.Table([]string{"Fault", "Mean power", "Tracking error"}, rows))
	b.WriteString("\nThe closed loop absorbs noise, bounded bias, a failed actuator and a flaky\nsupervisor — the predictability argument of §II-D, quantified.\n")
	return Result{
		ID:      "ext2",
		Title:   "Extension: fault robustness",
		Text:    b.String(),
		Metrics: metrics,
	}, nil
}

// runExt3 compares the paper's Eq. 4 cube-root expectation against the
// elasticity-calibrated exponent end to end.
func runExt3(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	sc.BudgetFrac, sc.MeasureEpochs = 0.8, o.epochs(16)
	withExponent := func(exponent float64) check.Scenario {
		sc := sc
		sc.Policy = func() (gpm.Policy, error) { return &gpm.PerformanceAware{PowerExponent: exponent}, nil }
		return sc
	}
	res, err := o.runAll([]check.Scenario{unmanaged(sc), withExponent(1.0 / 3.0), withExponent(cal.RecommendedExponent())})
	if err != nil {
		return Result{}, err
	}
	base, cube, calibrated := res.next(), res.next(), res.next()
	dCube, pCube := degradation(cube, base), cube.MeanPowerW
	dCal, pCal := degradation(calibrated, base), calibrated.MeanPowerW
	var b strings.Builder
	fmt.Fprintf(&b, "Identified power elasticity e = %.2f (Eq. 1 idealizes 3); calibrated exponent 1/e = %.2f.\n\n", cal.PowerElasticity, cal.RecommendedExponent())
	b.WriteString(trace.Table(
		[]string{"Expectation exponent", "Degradation", "Mean power"},
		[][]string{
			{"1/3 (paper, Eq. 4)", pct(dCube), fmt.Sprintf("%.1f W", pCube)},
			{fmt.Sprintf("1/e = %.2f (calibrated)", cal.RecommendedExponent()), pct(dCal), fmt.Sprintf("%.1f W", pCal)},
		}))
	return Result{
		ID:    "ext3",
		Title: "Extension: calibrated expectation exponent",
		Text:  b.String(),
		Metrics: map[string]float64{
			"elasticity":             cal.PowerElasticity,
			"degradation_cube":       dCube,
			"degradation_calibrated": dCal,
		},
	}, nil
}
