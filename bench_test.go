package cpm_test

// The benchmark harness regenerates every data table and figure of the
// paper's evaluation (BenchmarkTableN / BenchmarkFigNN — one per artefact,
// reporting the headline metrics alongside timing), plus the ablation and
// microbenchmarks DESIGN.md calls out:
//
//	go test -bench=. -benchmem
//
// Figure benches run the Quick-mode harness; `cpmsim run all` produces the
// full-length reports.

import (
	"testing"

	cpm "github.com/cpm-sim/cpm"
	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/experiments"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/workload"
)

// benchExperiment runs one registered harness per iteration and reports its
// headline metrics through the benchmark output.
func benchExperiment(b *testing.B, id string, reported ...string) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last, err = d.Run(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range reported {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", "dvfs_levels") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", "benchmarks") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", "mix1_cores") }

func BenchmarkFig05ModelValidation(b *testing.B) {
	benchExperiment(b, "fig5", "plant_gain", "mape_pct")
}
func BenchmarkFig06TransducerFits(b *testing.B) {
	benchExperiment(b, "fig6", "avg_r2")
}
func BenchmarkFig07Provisioning(b *testing.B) {
	benchExperiment(b, "fig7", "min_share_pct", "max_share_pct")
}
func BenchmarkFig08IslandTracking(b *testing.B) {
	benchExperiment(b, "fig8", "worst_gap_pct_chip")
}
func BenchmarkFig09PICEnvelope(b *testing.B) {
	benchExperiment(b, "fig9", "mean_overshoot", "mean_settle_invk")
}
func BenchmarkFig10ChipTracking(b *testing.B) {
	benchExperiment(b, "fig10", "worst_overshoot", "worst_undershoot")
}
func BenchmarkFig11BudgetCurves(b *testing.B) {
	benchExperiment(b, "fig11", "ours_worst_overshoot", "maxbips_always_below")
}
func BenchmarkFig12Degradation(b *testing.B) {
	benchExperiment(b, "fig12", "degradation_at_80")
}
func BenchmarkFig13IslandSize(b *testing.B) {
	benchExperiment(b, "fig13", "ours_1", "maxbips_1", "ours_4", "maxbips_4")
}
func BenchmarkFig14FullBudget(b *testing.B) {
	benchExperiment(b, "fig14", "avg_degradation")
}
func BenchmarkFig15Scaling(b *testing.B) {
	benchExperiment(b, "fig15", "ours_32", "maxbips_32")
}
func BenchmarkFig16MixSensitivity(b *testing.B) {
	benchExperiment(b, "fig16", "Mix-1", "Mix-2")
}
func BenchmarkFig17Intervals(b *testing.B) {
	benchExperiment(b, "fig17", "size2_pic2.5ms", "size2_pic5.0ms")
}
func BenchmarkFig18Thermal(b *testing.B) {
	benchExperiment(b, "fig18", "perf_violation_frac", "thermal_violations")
}
func BenchmarkFig19Variation(b *testing.B) {
	benchExperiment(b, "fig19", "mean_pt_improvement", "mean_throughput_loss")
}

// BenchmarkPoleAnalysis covers the §II-D controller design computation
// (Equations 9–13): closed-loop composition, root finding, Jury test and
// the stable-gain-range search.
func BenchmarkPoleAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := control.Analyze(control.PaperPlantGain, control.PaperGains); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxStableGainSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := control.MaxStableGainScale(control.PaperPlantGain, control.PaperGains, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sampling ablation: sequential vs island-parallel sampling ------------

func benchSimStep(b *testing.B, mix workload.Mix, parallel bool) {
	cfg := sim.DefaultConfig(mix)
	cfg.Parallel = parallel
	c, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkSimStep8Sequential(b *testing.B)  { benchSimStep(b, workload.Mix1(), false) }
func BenchmarkSimStep8Parallel(b *testing.B)    { benchSimStep(b, workload.Mix1(), true) }
func BenchmarkSimStep32Sequential(b *testing.B) { benchSimStep(b, workload.Mix3(2), false) }
func BenchmarkSimStep32Parallel(b *testing.B)   { benchSimStep(b, workload.Mix3(2), true) }

// --- sensor ablation: linear vs level-aware vs oracle feedback -------------

// benchTracking measures steady-state budget-tracking error under different
// feedback estimators; the squared-error metric is the figure of merit.
func benchTracking(b *testing.B, mode string) {
	cfg := cpm.DefaultConfig(cpm.Mix1())
	cfg.Parallel = true
	cal, err := cpm.Calibrate(cfg, 60, 240)
	if err != nil {
		b.Fatal(err)
	}
	budget := cal.BudgetW(0.8)
	var sse float64
	for i := 0; i < b.N; i++ {
		chip, err := cpm.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ccfg := cpm.ControllerConfig{BudgetW: budget}
		switch mode {
		case "linear":
			ests := make([]cpm.Estimator, len(cal.LinearTransducers))
			for j, t := range cal.LinearTransducers {
				ests[j] = t
			}
			ccfg.Transducers = ests
		case "level":
			ccfg.Transducers = cal.Transducers
		case "oracle":
			ccfg.UseOraclePower = true
		}
		ctl, err := cpm.NewController(chip, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		ctl.Run(120)
		sse = 0
		for k := 0; k < 200; k++ {
			r := ctl.Step()
			e := (r.Sim.ChipPowerW - budget) / budget
			sse += e * e
		}
	}
	b.ReportMetric(sse, "tracking_sse")
}

func BenchmarkAblationTransducerLinear(b *testing.B)     { benchTracking(b, "linear") }
func BenchmarkAblationTransducerLevelAware(b *testing.B) { benchTracking(b, "level") }
func BenchmarkAblationOraclePower(b *testing.B)          { benchTracking(b, "oracle") }

// --- GPM policy ablation ----------------------------------------------------

func benchPolicyThroughput(b *testing.B, mk func() gpm.Policy) {
	cfg := cpm.DefaultConfig(cpm.Mix1())
	cfg.Parallel = true
	cal, err := cpm.Calibrate(cfg, 60, 240)
	if err != nil {
		b.Fatal(err)
	}
	budget := cal.BudgetW(0.8)
	var bips float64
	for i := 0; i < b.N; i++ {
		chip, err := cpm.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctl, err := cpm.NewController(chip, cpm.ControllerConfig{
			BudgetW: budget, Policy: mk(), Transducers: cal.Transducers,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctl.Run(120)
		bips = 0
		for k := 0; k < 200; k++ {
			bips += ctl.Step().Sim.TotalBIPS / 200
		}
	}
	b.ReportMetric(bips, "BIPS")
}

func BenchmarkAblationPolicyEqualShare(b *testing.B) {
	benchPolicyThroughput(b, func() gpm.Policy { return gpm.EqualShare{} })
}
func BenchmarkAblationPolicyPerformanceAware(b *testing.B) {
	benchPolicyThroughput(b, func() gpm.Policy { return &gpm.PerformanceAware{} })
}

// --- microbenchmarks --------------------------------------------------------

func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.TableIL2PerCore())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<22)) &^ 63
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}

func BenchmarkPolynomialRoots(b *testing.B) {
	p := control.CharacteristicPoly(control.PaperPlantGain, control.PaperGains)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := control.Roots(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalibration(b *testing.B) {
	cfg := cpm.DefaultConfig(cpm.Mix1())
	cfg.Parallel = true
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := cpm.Calibrate(cfg, 20, 80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt1EnergyPolicy(b *testing.B) {
	benchExperiment(b, "ext1", "floor90_power_frac")
}
func BenchmarkExt2FaultRobustness(b *testing.B) {
	benchExperiment(b, "ext2", "err_case0", "err_case3")
}
func BenchmarkExt3CalibratedExponent(b *testing.B) {
	benchExperiment(b, "ext3", "elasticity")
}

// --- substrate ablations ------------------------------------------------

// benchSubstrate measures unmanaged chip throughput under a substrate
// variant, reporting BIPS so the ablation's effect is visible next to its
// cost.
func benchSubstrate(b *testing.B, mutate func(*sim.Config)) {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Parallel = true
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var bips float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bips = c.Step().TotalBIPS
	}
	b.ReportMetric(bips, "BIPS")
}

func BenchmarkAblationBaselineSubstrate(b *testing.B) { benchSubstrate(b, nil) }

func BenchmarkAblationWithNoC(b *testing.B) {
	benchSubstrate(b, func(cfg *sim.Config) {
		n := noc.DefaultConfig(2, 4)
		cfg.NoC = &n
	})
}

func BenchmarkAblationWithL2Prefetch(b *testing.B) {
	benchSubstrate(b, func(cfg *sim.Config) { cfg.L2PrefetchDegree = 4 })
}

func BenchmarkAblationSharedL2(b *testing.B) {
	benchSubstrate(b, func(cfg *sim.Config) { cfg.SharedL2 = true })
}

// Replay skips phase generation and cache simulation; its per-interval cost
// should be a small fraction of the sampling chip's (compare against
// BenchmarkAblationBaselineSubstrate).
func BenchmarkAblationReplayEngine(b *testing.B) {
	cfg := sim.DefaultConfig(workload.Mix1())
	set, err := sim.RecordTraces(cfg, 200)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewReplay(cfg, set)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// --- fleet farm: batched shared-sampler stepping ---------------------------

// benchFleetFarm measures one lockstep round of n chips sharing one
// workload — what a one-group farm runs per round on one pool worker: the
// sampler runs once per round and every chip pays only its
// frequency-dependent compute half. Per-op cost therefore is one live
// sampling pass plus n thin-chip halves; the aggregate-scalar reference is
// n independent live chips, i.e. n x BenchmarkSimStep8Sequential ns (steps
// of independent sessions compose linearly). benchreport folds the two
// into the fleet chips/sec and aggregate-speedup entries of BENCH_PR6.json.
func benchFleetFarm(b *testing.B, nChips int) {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Parallel = false
	sampler, err := sim.NewSampler(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sessions := make([]*engine.Session, nChips)
	for i := range sessions {
		cmp, err := sim.NewWithRecords(cfg, sampler)
		if err != nil {
			b.Fatal(err)
		}
		// Effectively unbounded window: the benchmark only ever advances
		// rounds, no session may finish mid-measurement.
		sessions[i], err = engine.NewSession(engine.NewChipRunner(cmp), engine.SessionConfig{
			MeasureEpochs: 1 << 20, Period: 20, Label: "fleet",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	fr, err := engine.NewFarmRunner(sessions)
	if err != nil {
		b.Fatal(err)
	}
	benchRounds(b, fr, nChips)
}

// benchRounds times one lockstep round of fr's nChips members per op,
// after two rounds to reach steady state.
func benchRounds(b *testing.B, fr *engine.FarmRunner, nChips int) {
	fr.StepRound()
	fr.StepRound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.StepRound()
	}
	b.StopTimer()
	perChip := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nChips)
	b.ReportMetric(perChip, "ns/chip-step")
	b.ReportMetric(1e9/perChip, "chip-steps/sec")
}

func BenchmarkFleetFarm64(b *testing.B)   { benchFleetFarm(b, 64) }
func BenchmarkFleetFarm1024(b *testing.B) { benchFleetFarm(b, 1024) }

// managedFleetKinds cycle through the members of the managed fleet, as in
// perfbench's fleet: every CPM scenario kind on the Mix-1 chip plus
// MaxBIPS, so all members share one sampler.
var managedFleetKinds = []string{
	"cpm-default", "mpc-gpm", "cache-aware", "variation-aware",
	"adaptive-pic", "fault-noise", "maxbips",
}

// BenchmarkFleetFarmManaged64 is BenchmarkFleetFarm64 with the per-chip
// work of a swept or served fleet on top of the compute half: each of the
// 64 record-driven Mix-1 chips runs its scenario's controller and
// invariant suite (check.Scenario.BuildOn) and a golden recorder. Budgets
// spread over (0.5, 0.95]; one op is one lockstep round.
func BenchmarkFleetFarmManaged64(b *testing.B) {
	const nChips, seed = 64, 1
	sampler, err := sim.NewSampler(sim.DefaultConfig(workload.Mix1()))
	if err != nil {
		b.Fatal(err)
	}
	sessions := make([]*engine.Session, nChips)
	for i := range sessions {
		sc, err := check.ScenarioByName(managedFleetKinds[i%len(managedFleetKinds)])
		if err != nil {
			b.Fatal(err)
		}
		sc.BudgetFrac = 0.5 + 0.45*float64(i+1)/nChips
		// Effectively unbounded window, as in benchFleetFarm.
		sc.WarmEpochs, sc.MeasureEpochs = 1, 1<<20
		cmp, err := sim.NewWithRecords(sc.BuildConfig(seed), sampler)
		if err != nil {
			b.Fatal(err)
		}
		if sessions[i], _, err = sc.BuildOn(cmp, seed, check.NewGolden(sc.Name)); err != nil {
			b.Fatal(err)
		}
	}
	fr, err := engine.NewFarmRunner(sessions)
	if err != nil {
		b.Fatal(err)
	}
	benchRounds(b, fr, nChips)
}

// BenchmarkFarmRun512 times the route a swept or served fleet takes
// through the farm: 512 managed Mix-1 members (perfbench's group size),
// kinds and budgets as in BenchmarkFleetFarmManaged64 with a golden
// recorder each, built by farm.New outside the timer, then one Farm.Run of
// 6 warm-up and 16 measured epochs. One op is one whole run; the round
// benches above stay the lockstep reference.
func BenchmarkFarmRun512(b *testing.B) {
	const nChips, seed, warm, meas = 512, 1, 6, 16
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := make([]farm.ChipSpec, nChips)
		for j := range specs {
			sc, err := check.ScenarioByName(managedFleetKinds[j%len(managedFleetKinds)])
			if err != nil {
				b.Fatal(err)
			}
			sc.BudgetFrac = 0.5 + 0.45*float64(j+1)/nChips
			sc.WarmEpochs, sc.MeasureEpochs = warm, meas
			specs[j] = farm.ChipSpec{
				Config: sc.BuildConfig(seed),
				NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
					sess, _, err := sc.BuildOn(cmp, seed, check.NewGolden(sc.Name))
					return sess, err
				},
			}
		}
		f, err := farm.New(specs, farm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := f.Run(engine.Pool{Workers: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
	perChip := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / (nChips * (warm + meas) * 20)
	b.ReportMetric(perChip, "ns/chip-interval")
}
