package experiments

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sensor"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "fig5",
		Title: "Actual power consumption vs difference-model prediction",
		Paper: "Figure 5: bodytrack on all islands with white-noise DVFS; model error well within 10%",
		Run:   runFig5,
	})
	register(Definition{
		ID:    "fig6",
		Title: "Correlation between power and processor utilization per benchmark",
		Paper: "Figure 6: linear fits per PARSEC benchmark, average R^2 = 0.96",
		Run:   runFig6,
	})
}

// runFig5 reproduces the §II-D validation: run bodytrack on every core (as
// the paper does — bodytrack was held out of the gain fit), change DVFS
// levels with white noise, and compare measured island power against the
// forward prediction of P(t+1) = P(t) + a·d(t).
func runFig5(o Options) (Result, error) {
	mix := workload.Mix{Name: "btrack-all", Islands: [][]string{
		{"btrack", "btrack"}, {"btrack", "btrack"}, {"btrack", "btrack"}, {"btrack", "btrack"},
	}}
	sc := spec(mix)
	cal, err := sc.Calibration(o.seed())
	if err != nil {
		return Result{}, err
	}
	cfg := sc.BuildConfig(o.seed())
	cmp, err := sim.New(cfg)
	if err != nil {
		return Result{}, err
	}
	steps := 45
	if o.Quick {
		steps = 20
	}
	const hold = 4
	rng := stats.NewRand(stats.DeriveSeed(cfg.Seed, 0xf165))
	table := cmp.IslandTable(0)

	var actual []float64
	var freqDeltas []float64
	prevNorm := table.NormFreq(table.Max().FreqMHz)
	// Warm the caches before measuring.
	for k := 0; k < 60; k++ {
		cmp.Step()
	}
	for s := 0; s < steps; s++ {
		lvl := rng.Intn(table.Levels())
		norm := table.NormFreq(table.Point(lvl).FreqMHz)
		for i := 0; i < cmp.NumIslands(); i++ {
			cmp.SetLevel(i, lvl)
		}
		var mean float64
		for k := 0; k < hold; k++ {
			r := cmp.Step()
			if k >= hold/2 {
				mean += r.Islands[0].PowerFracIsland
			}
		}
		actual = append(actual, mean/float64(hold-hold/2))
		if s > 0 {
			freqDeltas = append(freqDeltas, norm-prevNorm)
		}
		prevNorm = norm
	}

	predicted := sensor.PredictOneStep(actual, cal.PlantGain, freqDeltas)
	mape, err := stats.MAPE(actual, predicted)
	if err != nil {
		return Result{}, err
	}

	set := trace.NewSet("DVFS change")
	for i := range actual {
		set.Get("Actual").Append(actual[i] * 100)
		set.Get("Model").Append(predicted[i] * 100)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "System gain a = %.3f (paper: 0.79), fitted on the PARSEC suite excluding bodytrack.\n", cal.PlantGain)
	fmt.Fprintf(&b, "Validation on bodytrack with white-noise DVFS: mean absolute error %.1f%% (paper: well within 10%%).\n\n", mape)
	b.WriteString(set.Chart(70, 14))
	return Result{
		ID:    "fig5",
		Title: "Figure 5",
		Text:  b.String(),
		Sets:  map[string]*trace.Set{"fig5": set},
		Metrics: map[string]float64{
			"plant_gain": cal.PlantGain,
			"mape_pct":   mape,
		},
	}, nil
}

// runFig6 reproduces the transducer calibration study: each PARSEC
// benchmark runs on all cores of an 8-core CMP, DVFS levels sweep with held
// white noise, and measured (utilization, power) pairs are fitted linearly.
func runFig6(o Options) (Result, error) {
	windows := 40
	if o.Quick {
		windows = 16
	}
	type solo struct {
		row []string
		r2  float64
		set *trace.Set
	}
	profs := workload.PARSEC()
	// The solo-benchmark chips share no workload, so they run on the pool,
	// which returns them in benchmark order.
	solos, err := engine.Map(engine.Pool{}, len(profs), func(j int) (solo, error) {
		prof := profs[j]
		mix := workload.Mix{Name: "solo-" + prof.Name, Islands: [][]string{
			{prof.Name, prof.Name}, {prof.Name, prof.Name},
			{prof.Name, prof.Name}, {prof.Name, prof.Name},
		}}
		cfg := sim.DefaultConfig(mix)
		cfg.Seed = o.seed()
		cmp, err := sim.New(cfg)
		if err != nil {
			return solo{}, err
		}
		rng := stats.NewRand(stats.DeriveSeed(cfg.Seed, 0xf160, uint64(j)))
		for k := 0; k < 60; k++ {
			cmp.Step()
		}
		var utils, fracs []float64
		const hold = 6
		for w := 0; w < windows; w++ {
			lvl := rng.Intn(cmp.IslandTable(0).Levels())
			for i := 0; i < cmp.NumIslands(); i++ {
				cmp.SetLevel(i, lvl)
			}
			var su, sp float64
			for k := 0; k < hold; k++ {
				r := cmp.Step()
				if k < 2 {
					continue
				}
				su += r.Islands[0].MeanUtil
				sp += r.Islands[0].PowerFracIsland
			}
			utils = append(utils, su/(hold-2))
			fracs = append(fracs, sp/(hold-2))
		}
		tr, r2, err := sensor.FitTransducer(utils, fracs)
		if err != nil {
			return solo{}, err
		}
		set := trace.NewSet("utilization")
		for i := range utils {
			set.Get("power").Append(fracs[i])
			set.Get("fit").Append(tr.PowerFrac(utils[i]))
		}
		row := []string{prof.Name, fmt.Sprintf("P = %.3f·U %+.3f", tr.K0, tr.K1), fmt.Sprintf("%.3f", r2)}
		return solo{row, r2, set}, nil
	})
	if err != nil {
		return Result{}, err
	}
	var rows [][]string
	var r2s []float64
	sets := map[string]*trace.Set{}
	for j, s := range solos {
		rows = append(rows, s.row)
		r2s = append(r2s, s.r2)
		sets["fig6-"+profs[j].Name] = s.set
	}
	avg := stats.Mean(r2s)
	var b strings.Builder
	b.WriteString(trace.Table([]string{"Benchmark", "Linear fit (island power fraction)", "R^2"}, rows))
	fmt.Fprintf(&b, "\nAverage R^2 = %.3f (paper: 0.96).\n", avg)
	// stats.Min of an empty slice is +Inf (and Mean NaN); omit the metrics
	// rather than hand non-finite values to downstream encoders.
	m := map[string]float64{}
	if len(r2s) > 0 {
		m["avg_r2"] = avg
		m["min_r2"] = stats.Min(r2s)
	}
	return Result{
		ID:      "fig6",
		Title:   "Figure 6",
		Text:    b.String(),
		Sets:    sets,
		Metrics: m,
	}, nil
}
