package experiments

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "fig18",
		Title: "Thermal-aware power provisioning",
		Paper: "Figure 18: with the thermal-aware policy hotspot constraints are never violated, at some performance cost; the performance-aware policy violates them part of the time",
		Run:   runFig18,
	})
	register(Definition{
		ID:    "fig19",
		Title: "Variation-aware power provisioning",
		Paper: "Figure 19/20: with intra-die leakage variation (1.2x/1.5x/2x/1x), the variation-aware policy trades some throughput for a better power/throughput ratio",
		Run:   runFig19,
	})
}

// thermalViolations counts the Figure 18 constraint breaches in an
// allocation trace, judged by a fresh instance of the registry's
// thermal-aware policy.
func thermalViolations(budgetW float64, allocTrace [][]float64) (int, error) {
	build, err := check.PolicyByName("thermal")
	if err != nil {
		return 0, err
	}
	p, err := build()
	if err != nil {
		return 0, err
	}
	return p.(*gpm.ThermalAware).Violations(budgetW, allocTrace), nil
}

func runFig18(o Options) (Result, error) {
	sc := spec(workload.ThermalMix())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	// A tight budget (50% of required power) is what makes hotspot
	// formation possible at all: the performance-aware policy can then
	// concentrate a large share of the (small) budget on two adjacent
	// islands, which at generous budgets is prevented by each island's own
	// consumption ceiling.
	const budgetFrac = 0.5
	budget := cal.BudgetW(budgetFrac)
	sc.BudgetFrac, sc.MeasureEpochs = budgetFrac, o.epochs(20)

	base, err := o.run(unmanaged(sc))
	if err != nil {
		return Result{}, err
	}
	perf, err := o.run(sc)
	if err != nil {
		return Result{}, err
	}
	if sc.Policy, err = check.PolicyByName("thermal"); err != nil {
		return Result{}, err
	}
	therm, err := o.run(sc)
	if err != nil {
		return Result{}, err
	}

	perfViolations, err := thermalViolations(budget, perf.AllocTrace)
	if err != nil {
		return Result{}, err
	}
	thermViolations, err := thermalViolations(budget, therm.AllocTrace)
	if err != nil {
		return Result{}, err
	}
	violFrac := 0.0
	if len(perf.AllocTrace) > 0 {
		violFrac = float64(perfViolations) / float64(len(perf.AllocTrace))
	}

	dPerf := degradation(perf, base)
	dTherm := degradation(therm, base)

	var b strings.Builder
	fmt.Fprintf(&b, "8-core CMP, one core per island (Fig 18a: mesa/bzip/gcc/sixtrack x2 on a 2x4 die), %.0f%% budget.\n\n", budgetFrac*100)
	b.WriteString(trace.Table(
		[]string{"Policy", "Perf degradation", "Constraint violations", "Peak temp (C)"},
		[][]string{
			{"Performance-aware", pct(dPerf), fmt.Sprintf("%d/%d epochs (%s)", perfViolations, len(perf.AllocTrace), pct(violFrac)), f2(perf.MaxTempC)},
			{"Thermal-aware", pct(dTherm), fmt.Sprintf("%d/%d epochs", thermViolations, len(therm.AllocTrace)), f2(therm.MaxTempC)},
		}))
	b.WriteString("\nConstraints (representative, as in the paper): two adjacent islands may not hold more\nthan 30% of the budget for more than 2 consecutive epochs, nor a single island more than\n20% for more than 4 consecutive epochs; a sustained breach is a presumed hotspot.\n")
	return Result{
		ID:    "fig18",
		Title: "Figure 18",
		Text:  b.String(),
		Metrics: map[string]float64{
			"perf_degradation":    dPerf,
			"thermal_degradation": dTherm,
			"perf_violation_frac": violFrac,
			"thermal_violations":  float64(thermViolations),
			"perf_peak_temp":      perf.MaxTempC,
			"thermal_peak_temp":   therm.MaxTempC,
		},
	}, nil
}

func runFig19(o Options) (Result, error) {
	// Apply the §IV-B intra-die variation: islands 1-3 leak 1.2x, 1.5x, 2x
	// relative to island 4. The chip is calibrated *with* its variation, as
	// any real per-die characterization would be — a 2x-leakage island's
	// power-per-level table differs materially from the nominal one.
	const budgetFrac = 0.8
	sc := spec(workload.Mix1())
	sc.Variation = variation.PaperIslands(2)
	sc.BudgetFrac, sc.MeasureEpochs = budgetFrac, o.epochs(20)

	perf, err := o.run(sc)
	if err != nil {
		return Result{}, err
	}
	if sc.Policy, err = check.PolicyByName("variation"); err != nil {
		return Result{}, err
	}
	va, err := o.run(sc)
	if err != nil {
		return Result{}, err
	}

	leaks := []float64{1.2, 1.5, 2.0, 1.0}
	var rows [][]string
	var meanThroughputLoss, meanPTImprove float64
	metrics := map[string]float64{}
	for i := 0; i < 4; i++ {
		perfBIPS := stats.Mean(perf.IslandBIPS[i])
		vaBIPS := stats.Mean(va.IslandBIPS[i])
		perfPT := stats.Mean(perf.IslandPower[i]) / perfBIPS
		vaPT := stats.Mean(va.IslandPower[i]) / vaBIPS
		tLoss := 1 - vaBIPS/perfBIPS
		ptImp := 1 - vaPT/perfPT
		meanThroughputLoss += tLoss / 4
		meanPTImprove += ptImp / 4
		metrics[fmt.Sprintf("pt_improvement_island%d", i+1)] = ptImp
		metrics[fmt.Sprintf("throughput_loss_island%d", i+1)] = tLoss
		rows = append(rows, []string{
			fmt.Sprintf("Island %d (%.1fx leakage)", i+1, leaks[i]),
			pct(tLoss),
			pct(ptImp),
		})
	}
	metrics["mean_throughput_loss"] = meanThroughputLoss
	metrics["mean_pt_improvement"] = meanPTImprove

	var b strings.Builder
	fmt.Fprintf(&b, "Mix-1 with intra-die leakage variation, %.0f%% budget.\n", budgetFrac*100)
	b.WriteString("Variation-aware greedy EPI policy relative to the performance-aware policy:\n\n")
	b.WriteString(trace.Table([]string{"Island", "Throughput degradation", "Power/throughput improvement"}, rows))
	fmt.Fprintf(&b, "\nMean: %s throughput for %s better power/throughput.\n",
		pct(meanThroughputLoss), pct(meanPTImprove))
	return Result{
		ID:      "fig19",
		Title:   "Figures 19/20",
		Text:    b.String(),
		Metrics: metrics,
	}, nil
}
