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
		ID:    "fig13",
		Title: "Performance degradation vs island size (1/2/4 cores per island)",
		Paper: "Figure 13: degradation grows with cores per island; at 1 core/island our scheme and MaxBIPS are comparable (ours ~3.75% better)",
		Run:   runFig13,
	})
	register(Definition{
		ID:    "fig15",
		Title: "16- and 32-core CMP evaluation vs MaxBIPS",
		Paper: "Figure 15: ~4% degradation at 80% budget for ours; MaxBIPS at 14-16.2%",
		Run:   runFig15,
	})
	register(Definition{
		ID:    "fig16",
		Title: "Sensitivity to the application mix (Mix-1 vs Mix-2)",
		Paper: "Figure 16: Mix-2 (homogeneous islands) degrades less than Mix-1",
		Run:   runFig16,
	})
	register(Definition{
		ID:    "fig17",
		Title: "Sensitivity to GPM/PIC invocation intervals",
		Paper: "Figure 17: (50ms, 2.5ms) degrades less than (50ms, 5ms); shown for 1/2/4 cores per island",
		Run:   runFig17,
	})
}

func runFig13(o Options) (Result, error) {
	meas := o.epochs(12)
	const budgetFrac = 0.8
	var rows [][]string
	metrics := map[string]float64{}
	set := trace.NewSet("cores per island")
	sizes := []int{1, 2, 4}
	var scs []check.Scenario
	for _, size := range sizes {
		mix, err := workload.PerIslandSize(size)
		if err != nil {
			return Result{}, err
		}
		sc := spec(mix)
		sc.BudgetFrac, sc.MeasureEpochs = budgetFrac, meas
		scs = append(scs, unmanaged(sc), sc, maxBIPS(sc))
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	for _, size := range sizes {
		base, ours, mb := res.next(), res.next(), res.next()
		dOurs := degradation(ours, base)
		dMB := degradation(mb, base)
		metrics[fmt.Sprintf("ours_%d", size)] = dOurs
		metrics[fmt.Sprintf("maxbips_%d", size)] = dMB
		set.Get("Our scheme").Append(dOurs * 100)
		set.Get("MaxBIPS").Append(dMB * 100)
		rows = append(rows, []string{
			fmt.Sprintf("%d core/island", size), pct(dOurs), pct(dMB),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Performance degradation at the %.0f%% budget by island granularity:\n", budgetFrac*100)
	b.WriteString(trace.Table([]string{"Configuration", "Our scheme", "MaxBIPS"}, rows))
	b.WriteString("\n")
	b.WriteString(set.Chart(50, 10))
	b.WriteString("\n1 core/island is the architecture MaxBIPS targets; larger islands are where per-island control must cope with co-scheduled threads.\n")
	return Result{
		ID:      "fig13",
		Title:   "Figure 13",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"fig13": set},
		Metrics: metrics,
	}, nil
}

func runFig15(o Options) (Result, error) {
	meas := o.epochs(10)
	budgets := []float64{0.70, 0.80, 0.90}
	metrics := map[string]float64{}
	var rows [][]string
	replicaCounts := []int{1, 2}
	var scs []check.Scenario
	for _, replicas := range replicaCounts {
		sc := spec(workload.Mix3(replicas))
		sc.MeasureEpochs = meas
		scs = append(scs, unmanaged(sc))
		for _, frac := range budgets {
			sc.BudgetFrac = frac
			scs = append(scs, sc, maxBIPS(sc))
		}
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	for _, replicas := range replicaCounts {
		cores := 16 * replicas
		base := res.next()
		for _, frac := range budgets {
			ours, mb := res.next(), res.next()
			dOurs := degradation(ours, base)
			dMB := degradation(mb, base)
			if frac == 0.80 {
				metrics[fmt.Sprintf("ours_%d", cores)] = dOurs
				metrics[fmt.Sprintf("maxbips_%d", cores)] = dMB
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d cores", cores),
				fmt.Sprintf("%.0f%%", frac*100),
				pct(dOurs),
				pct(dMB),
			})
		}
	}
	var b strings.Builder
	b.WriteString(trace.Table([]string{"CMP", "Budget", "Our scheme", "MaxBIPS"}, rows))
	fmt.Fprintf(&b, "\nAt the 80%% budget (paper: ours ~4%%; MaxBIPS 14%% @16 cores, 16.2%% @32 cores).\n")
	return Result{
		ID:      "fig15",
		Title:   "Figure 15",
		Text:    b.String(),
		Metrics: metrics,
	}, nil
}

func runFig16(o Options) (Result, error) {
	meas := o.epochs(14)
	metrics := map[string]float64{}
	var rows [][]string
	set := trace.NewSet("budget (% of required power)")
	mixes := []workload.Mix{workload.Mix1(), workload.Mix2()}
	var scs []check.Scenario
	for _, frac := range budgetSweep {
		for _, mix := range mixes {
			sc := spec(mix)
			sc.BudgetFrac, sc.MeasureEpochs = frac, meas
			scs = append(scs, unmanaged(sc), sc)
		}
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	for _, frac := range budgetSweep {
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, mix := range mixes {
			base, ours := res.next(), res.next()
			d := degradation(ours, base)
			row = append(row, pct(d))
			set.Get(mix.Name).Append(d * 100)
			if frac == 0.80 {
				metrics[mix.Name] = d
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(trace.Table([]string{"Budget", "Mix-1", "Mix-2"}, rows))
	b.WriteString("\n")
	b.WriteString(set.Chart(60, 10))
	b.WriteString("\nMix-2 groups CPU-bound with CPU-bound and memory-bound with memory-bound;\nslowing a homogeneous memory-bound island costs little performance.\n")
	return Result{
		ID:      "fig16",
		Title:   "Figure 16",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"fig16": set},
		Metrics: metrics,
	}, nil
}

func runFig17(o Options) (Result, error) {
	meas := o.epochs(12)
	const budgetFrac = 0.8
	metrics := map[string]float64{}
	var rows [][]string
	sizes, picIntervals := []int{1, 2, 4}, []float64{2.5, 5.0}
	var scs []check.Scenario
	for _, size := range sizes {
		mix, err := workload.PerIslandSize(size)
		if err != nil {
			return Result{}, err
		}
		for _, picMs := range picIntervals {
			sc := spec(mix)
			sc.BudgetFrac, sc.MeasureEpochs = budgetFrac, meas
			sc.IntervalSec = picMs / 1000
			sc.GPMPeriod = int(50/picMs + 0.5) // keep T_global at 50 ms
			scs = append(scs, unmanaged(sc), sc)
		}
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d core/island", size)}
		for _, picMs := range picIntervals {
			base, ours := res.next(), res.next()
			d := degradation(ours, base)
			row = append(row, pct(d))
			metrics[fmt.Sprintf("size%d_pic%.1fms", size, picMs)] = d
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Performance degradation at the %.0f%% budget, GPM every 50 ms:\n", budgetFrac*100)
	b.WriteString(trace.Table([]string{"Configuration", "PIC @ 2.5 ms", "PIC @ 5 ms"}, rows))
	b.WriteString("\nFiner PIC intervals let the controller exploit budget headroom sooner (paper: (50, 2.5) beats (50, 5)).\n")
	return Result{
		ID:      "fig17",
		Title:   "Figure 17",
		Text:    b.String(),
		Metrics: metrics,
	}, nil
}
