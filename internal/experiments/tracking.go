package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "fig7",
		Title: "Dynamic power provisioning across four islands (80% budget)",
		Paper: "Figure 7: per-island provisions vary per interval, tracked by the GPM; island demands range ~13-25% of chip power",
		Run:   runFig7,
	})
	register(Definition{
		ID:    "fig8",
		Title: "Per-island target vs actual power over 20 GPM invocations",
		Paper: "Figure 8: PICs track the GPM provisions as they move",
		Run:   runFig8,
	})
	register(Definition{
		ID:    "fig9",
		Title: "PIC tracking between two successive GPM invocations",
		Paper: "Figure 9: overshoot mostly within 2%, settling within 5-6 PIC invocations",
		Run:   runFig9,
	})
	register(Definition{
		ID:    "fig10",
		Title: "Chip-wide power tracking at 80% budget",
		Paper: "Figure 10: over/undershoot mostly within 4% of the budget",
		Run:   runFig10,
	})
}

func runFig7(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	budget := cal.BudgetW(0.8)
	sc.BudgetFrac, sc.MeasureEpochs = 0.8, o.epochs(20)
	// The provision series is recorded live by an epoch observer rather
	// than scraped from the summary afterwards.
	set := trace.NewSet("GPM invocation")
	obs := engine.Funcs{OnEpoch: func(e engine.Epoch) {
		for i, a := range e.AllocW {
			set.Get(fmt.Sprintf("Island%d", i+1)).Append(a / cal.UnmanagedPowerW * 100)
		}
	}}
	if _, err := o.run(sc, obs); err != nil {
		return Result{}, err
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, s := range set.Series() {
		if v := s.Min(); v < lo {
			lo = v
		}
		if v := s.Max(); v > hi {
			hi = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Budget: 80%% of required chip power (%.1f W). Per-island provisions (%% of required power):\n\n", budget)
	b.WriteString(set.Chart(70, 14))
	fmt.Fprintf(&b, "\nProvision range across islands and epochs: %.1f%% – %.1f%% (paper: ~13%%–25%%).\n", lo, hi)
	// An empty recording leaves lo/hi at ±Inf; omit the metrics rather than
	// hand non-finite values to downstream encoders.
	m := map[string]float64{}
	if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) {
		m["min_share_pct"] = lo
		m["max_share_pct"] = hi
	}
	return Result{
		ID:      "fig7",
		Title:   "Figure 7",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"fig7": set},
		Metrics: m,
	}, nil
}

func runFig8(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	sc.BudgetFrac, sc.MeasureEpochs = 0.8, o.epochs(20)
	sum, err := o.run(sc)
	if err != nil {
		return Result{}, err
	}
	sets := map[string]*trace.Set{}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-island target (GPM provision) vs actual power, %% of required chip power:\n")
	worstGap := 0.0
	for i := range sum.IslandAlloc {
		set := trace.NewSet("GPM invocation")
		tgt := set.Get("target")
		act := set.Get("actual")
		for e := range sum.IslandAlloc[i] {
			tv := sum.IslandAlloc[i][e] / cal.UnmanagedPowerW * 100
			av := sum.IslandPower[i][e] / cal.UnmanagedPowerW * 100
			tgt.Append(tv)
			act.Append(av)
			if gap := math.Abs(av - tv); gap > worstGap {
				worstGap = gap
			}
		}
		sets[fmt.Sprintf("fig8-island%d", i+1)] = set
		fmt.Fprintf(&b, "\nIsland %d:\n%s", i+1, set.Chart(70, 10))
	}
	fmt.Fprintf(&b, "\nWorst |actual-target| = %.2f%% of required chip power.\n", worstGap)
	return Result{
		ID:    "fig8",
		Title: "Figure 8",
		Text:  b.String(),
		Sets:  sets,
		Metrics: map[string]float64{
			"worst_gap_pct_chip": worstGap,
		},
	}, nil
}

// runFig9 zooms into PIC granularity between two GPM invocations, measuring
// overshoot and settling as the paper defines them (relative to the island
// target, 2% settling band).
func runFig9(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	sc.BudgetFrac, sc.WarmEpochs, sc.MeasureEpochs = 0.8, 8, o.epochs(12)
	// Record every measured interval; the step aliases scratch buffers, so
	// keep a clone.
	var steps []engine.Step
	rec := engine.Funcs{OnStep: func(st engine.Step) {
		if st.Measured {
			steps = append(steps, st.Clone())
		}
	}}
	sum, err := o.run(sc, rec)
	if err != nil {
		return Result{}, err
	}
	cfg := sc.BuildConfig(o.seed())
	// For every island and epoch, measure overshoot of actual island power
	// vs target across the 20 PIC invocations of the epoch, and settling
	// time into a band accounting for one DVFS quantum of resolution.
	nIslands := len(sum.IslandAlloc)
	overshoots := make([]float64, 0, 64)
	settles := make([]float64, 0, 64)
	sets := map[string]*trace.Set{}
	var epochSeries [][]float64
	for i := 0; i < nIslands; i++ {
		epochSeries = append(epochSeries, nil)
	}
	prevTarget := make([]float64, nIslands)
	havePrevTarget := false
	for k, st := range steps {
		for i, ir := range st.Sim.Islands {
			epochSeries[i] = append(epochSeries[i], ir.PowerW)
		}
		if (k+1)%20 == 0 {
			for i := 0; i < nIslands; i++ {
				target := st.AllocW[i]
				series := epochSeries[i][len(epochSeries[i])-20:]
				if target > 0 && havePrevTarget {
					// Overshoot as the paper measures it (§IV): the peak
					// past the new target when the budget *rose* — the PIC
					// approaches from below and may cross over. When the
					// budget fell, the initial samples sit at the old
					// operating point and are the step input itself, not
					// overshoot.
					if target >= prevTarget[i] {
						peak := 0.0
						for _, v := range series {
							if v > peak {
								peak = v
							}
						}
						if over := (peak - target) / target; over > 0 {
							overshoots = append(overshoots, over)
						} else {
							overshoots = append(overshoots, 0)
						}
					}
					// Settling: first invocation from which power stays in
					// the band (2% of target + half a DVFS quantum).
					quantum := quantumW(cfg, i)
					band := 0.02*target + quantum/2
					settle := -1
					for s := len(series) - 1; s >= 0; s-- {
						if math.Abs(series[s]-target) > band {
							break
						}
						settle = s
					}
					if settle >= 0 {
						settles = append(settles, float64(settle))
					}
				}
				prevTarget[i] = target
			}
			havePrevTarget = true
		}
	}
	// Render the last measured epoch per island.
	for i := 0; i < nIslands; i++ {
		set := trace.NewSet("PIC invocation")
		series := epochSeries[i][len(epochSeries[i])-20:]
		tgt := steps[len(steps)-1].AllocW[i]
		for _, v := range series {
			set.Get("actual").Append(v)
			set.Get("target").Append(tgt)
		}
		sets[fmt.Sprintf("fig9-island%d", i+1)] = set
	}

	meanOver := stats.Mean(overshoots)
	p95Over := percentile(overshoots, 0.95)
	meanSettle := stats.Mean(settles)
	var b strings.Builder
	fmt.Fprintf(&b, "PIC tracking between successive GPM invocations over %d island-epochs:\n", len(overshoots))
	fmt.Fprintf(&b, "  mean overshoot      = %s of target (paper: mostly within 2%%)\n", pct(meanOver))
	fmt.Fprintf(&b, "  95th pct overshoot  = %s of target\n", pct(p95Over))
	fmt.Fprintf(&b, "  mean settling time  = %.1f PIC invocations (paper: 5-6)\n", meanSettle)
	for i := 0; i < nIslands; i++ {
		fmt.Fprintf(&b, "\nIsland %d, last epoch (W):\n%s", i+1, sets[fmt.Sprintf("fig9-island%d", i+1)].Chart(60, 8))
	}
	return Result{
		ID:    "fig9",
		Title: "Figure 9",
		Text:  b.String(),
		Sets:  sets,
		Metrics: map[string]float64{
			"mean_overshoot":   meanOver,
			"p95_overshoot":    p95Over,
			"mean_settle_invk": meanSettle,
		},
	}, nil
}

func runFig10(o Options) (Result, error) {
	sc := spec(workload.Mix1())
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	budget := cal.BudgetW(0.8)
	sc.BudgetFrac, sc.MeasureEpochs = 0.8, o.epochs(40)
	set := trace.NewSet("GPM invocation")
	worstOver, worstUnder := 0.0, 0.0
	obs := engine.Funcs{OnEpoch: func(e engine.Epoch) {
		set.Get("Pactual").Append(e.MeanPowerW / cal.UnmanagedPowerW * 100)
		set.Get("Ptarget").Append(80)
		dev := (e.MeanPowerW - budget) / budget
		if dev > worstOver {
			worstOver = dev
		}
		if -dev > worstUnder {
			worstUnder = -dev
		}
	}}
	sum, err := o.run(sc, obs)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Chip power (%% of required power) vs the 80%% budget:\n\n")
	b.WriteString(set.Chart(70, 12))
	fmt.Fprintf(&b, "\nWorst overshoot %s, worst undershoot %s (paper: mostly within 4%%).\n",
		pct(worstOver), pct(worstUnder))
	return Result{
		ID:    "fig10",
		Title: "Figure 10",
		Text:  b.String(),
		Sets:  map[string]*trace.Set{"fig10": set},
		Metrics: map[string]float64{
			"worst_overshoot":  worstOver,
			"worst_undershoot": worstUnder,
			"mean_power_w":     sum.MeanPowerW,
			"budget_w":         budget,
		},
	}, nil
}

// quantumW estimates the island power change of one DVFS step near the top
// of the table, the tracking resolution.
func quantumW(cfg sim.Config, islandIdx int) float64 {
	// One level step changes island power by roughly swing/(levels-1);
	// use the calibrated island max power with a 0.6 swing estimate. The
	// island's own table sets the step count; a single-point table has no
	// steps, so the divisor clamps to 1 (the quantum degenerates to the
	// whole swing) instead of dividing by zero.
	c, err := sim.New(cfg)
	if err != nil {
		return 1
	}
	steps := c.IslandTable(islandIdx).Levels() - 1
	if steps < 1 {
		steps = 1
	}
	return 0.6 * c.IslandMaxPowerW(islandIdx) / float64(steps)
}

// percentile is the nearest-rank percentile with a floored index.
// stats.Percentile interpolates between ranks, which would move fig9's
// reported 95th-percentile overshoot.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	for i := 1; i < len(ys); i++ {
		for j := i; j > 0 && ys[j] < ys[j-1]; j-- {
			ys[j], ys[j-1] = ys[j-1], ys[j]
		}
	}
	idx := int(p * float64(len(ys)-1))
	return ys[idx]
}
