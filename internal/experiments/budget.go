package experiments

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "fig11",
		Title: "Budget curves: our scheme vs MaxBIPS",
		Paper: "Figure 11: our scheme closely tracks the budget and never overshoots it; MaxBIPS always consumes below the budget",
		Run:   runFig11,
	})
	register(Definition{
		ID:    "fig12",
		Title: "Performance degradation vs power budget",
		Paper: "Figure 12: ~4% degradation at the 80% budget, rising as budgets shrink",
		Run:   runFig12,
	})
	register(Definition{
		ID:    "fig14",
		Title: "Performance degradation over time at 100% budget",
		Paper: "Figure 14: average 0.9% (maximum ~2.2%) degradation from provisioning mispredictions",
		Run:   runFig14,
	})
}

var budgetSweep = []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95}

func runFig11(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	sc.MeasureEpochs = o.epochs(16)
	var scs []check.Scenario
	for _, frac := range budgetSweep {
		sc.BudgetFrac = frac
		scs = append(scs, sc, maxBIPS(sc))
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	set := trace.NewSet("budget (% of required power)")
	var rows [][]string
	var worstOurGap, worstOurOver float64
	maxbipsAlwaysBelow := true
	for _, frac := range budgetSweep {
		budget := cal.BudgetW(frac)
		ours, mb := res.next(), res.next()
		set.Get("Budget").Append(frac * 100)
		set.Get("Our scheme").Append(ours.MeanPowerW / cal.UnmanagedPowerW * 100)
		set.Get("MaxBIPS").Append(mb.MeanPowerW / cal.UnmanagedPowerW * 100)
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%.1f W", budget),
			fmt.Sprintf("%.1f W", ours.MeanPowerW),
			fmt.Sprintf("%.1f W", mb.MeanPowerW),
		})
		gap := (budget - ours.MeanPowerW) / budget
		if gap > worstOurGap {
			worstOurGap = gap
		}
		if over := (ours.MeanPowerW - budget) / budget; over > worstOurOver {
			worstOurOver = over
		}
		if mb.MeanPowerW >= budget {
			maxbipsAlwaysBelow = false
		}
	}
	var b strings.Builder
	b.WriteString(trace.Table([]string{"Budget", "Budget (W)", "Ours (W)", "MaxBIPS (W)"}, rows))
	b.WriteString("\n")
	b.WriteString(set.Chart(70, 14))
	fmt.Fprintf(&b, "\nOur scheme: worst mean undershoot %s, worst mean overshoot %s.\n", pct(worstOurGap), pct(worstOurOver))
	below := 0.0
	if maxbipsAlwaysBelow {
		below = 1
	}
	fmt.Fprintf(&b, "MaxBIPS consumption below budget at every point: %v (paper: always below).\n", maxbipsAlwaysBelow)
	return Result{
		ID:    "fig11",
		Title: "Figure 11",
		Text:  b.String(),
		Sets:  map[string]*trace.Set{"fig11": set},
		Metrics: map[string]float64{
			"ours_worst_undershoot": worstOurGap,
			"ours_worst_overshoot":  worstOurOver,
			"maxbips_always_below":  below,
		},
	}, nil
}

func runFig12(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	sc.MeasureEpochs = o.epochs(16)
	scs := []check.Scenario{unmanaged(sc)}
	for _, frac := range budgetSweep {
		sc.BudgetFrac = frac
		scs = append(scs, sc)
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	base := res.next()
	set := trace.NewSet("budget (% of required power)")
	var rows [][]string
	degr := map[float64]float64{}
	for _, frac := range budgetSweep {
		d := degradation(res.next(), base)
		degr[frac] = d
		set.Get("degradation").Append(d * 100)
		rows = append(rows, []string{fmt.Sprintf("%.0f%%", frac*100), pct(d)})
	}
	var b strings.Builder
	b.WriteString(trace.Table([]string{"Budget", "Perf degradation"}, rows))
	b.WriteString("\n")
	b.WriteString(set.Chart(60, 10))
	fmt.Fprintf(&b, "\nAt the 80%% budget: %s degradation (paper: ~4%%).\n", pct(degr[0.80]))
	return Result{
		ID:    "fig12",
		Title: "Figure 12",
		Text:  b.String(),
		Sets:  map[string]*trace.Set{"fig12": set},
		Metrics: map[string]float64{
			"degradation_at_50": degr[0.50],
			"degradation_at_80": degr[0.80],
			"degradation_at_95": degr[0.95],
		},
	}, nil
}

func runFig14(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	sc.BudgetFrac, sc.MeasureEpochs = 1.0, o.epochs(24)
	// Unmanaged over the identical window (same seed, so epochs align).
	res, err := o.runAll([]check.Scenario{sc, unmanaged(sc)})
	if err != nil {
		return Result{}, err
	}
	ours, base := res.next(), res.next()
	set := trace.NewSet("GPM invocation")
	var worst, sumD float64
	perEpoch := ours.EpochInstr
	n := len(perEpoch)
	if len(base.EpochInstr) < n {
		n = len(base.EpochInstr)
	}
	for e := 0; e < n; e++ {
		d := 1 - perEpoch[e]/base.EpochInstr[e]
		if d < 0 {
			d = 0
		}
		set.Get("degradation").Append(d * 100)
		sumD += d
		if d > worst {
			worst = d
		}
	}
	avg := sumD / float64(n)
	var b strings.Builder
	fmt.Fprintf(&b, "Per-epoch performance degradation at the 100%% budget:\n\n")
	b.WriteString(set.Chart(70, 10))
	fmt.Fprintf(&b, "\nAverage %s, maximum %s (paper: average 0.9%%, maximum ~2.2%%).\n", pct(avg), pct(worst))
	return Result{
		ID:    "fig14",
		Title: "Figure 14",
		Text:  b.String(),
		Sets:  map[string]*trace.Set{"fig14": set},
		Metrics: map[string]float64{
			"avg_degradation": avg,
			"max_degradation": worst,
		},
	}, nil
}
