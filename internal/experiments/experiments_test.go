package experiments

import (
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/workload"
)

// quickRuns memoizes quick: each harness runs once per test binary however
// many tests read its result.
var quickRuns = map[string]quickRun{}

type quickRun struct {
	r   Result
	err error
}

// quick runs an experiment in Quick mode, failing the test on error.
func quick(t *testing.T, id string) Result {
	t.Helper()
	d, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	run, ok := quickRuns[id]
	if !ok {
		run.r, run.err = d.Run(Options{Quick: true})
		quickRuns[id] = run
	}
	r := run.r
	if run.err != nil {
		t.Fatalf("%s: %v", id, run.err)
	}
	if r.ID != id {
		t.Fatalf("result ID %q for experiment %q", r.ID, id)
	}
	if r.Text == "" {
		t.Fatalf("%s produced no report", id)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ext1", "ext2", "ext3", "scorecard", "technode",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Paper == "" || all[i].Title == "" {
			t.Errorf("%s missing metadata", id)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID should error")
	}
}

func TestTables(t *testing.T) {
	r := quick(t, "table1")
	if r.Metrics["dvfs_levels"] != 8 || r.Metrics["fmin_mhz"] != 600 || r.Metrics["fmax_mhz"] != 2000 {
		t.Errorf("Table I V/f settings wrong: %v", r.Metrics)
	}
	if r.Metrics["mem_cycles_2g"] != 200 {
		t.Errorf("memory latency = %v cycles, want 200", r.Metrics["mem_cycles_2g"])
	}
	r = quick(t, "table2")
	if r.Metrics["benchmarks"] != 8 {
		t.Errorf("Table II should list 8 PARSEC benchmarks")
	}
	if !strings.Contains(r.Text, "blackscholes") || !strings.Contains(r.Text, "canneal") {
		t.Error("Table II missing benchmarks")
	}
	r = quick(t, "table3")
	if r.Metrics["mix1_cores"] != 8 || r.Metrics["mix3_cores"] != 16 {
		t.Errorf("Table III shapes wrong: %v", r.Metrics)
	}
}

// Figure 5: the difference model must predict measured power closely.
func TestFig5ModelAccuracy(t *testing.T) {
	r := quick(t, "fig5")
	if g := r.Metrics["plant_gain"]; g < 0.3 || g > 1.2 {
		t.Errorf("plant gain = %v, want in the family of the paper's 0.79", g)
	}
	if m := r.Metrics["mape_pct"]; m > 10 {
		t.Errorf("model error = %.1f%%, paper reports well within 10%%", m)
	}
}

// Figure 6: the power-utilization relation must be strongly linear.
func TestFig6Linearity(t *testing.T) {
	r := quick(t, "fig6")
	if avg := r.Metrics["avg_r2"]; avg < 0.85 {
		t.Errorf("average R² = %.3f, paper reports 0.96", avg)
	}
	if min := r.Metrics["min_r2"]; min < 0.70 {
		t.Errorf("weakest benchmark R² = %.3f, too weak for a usable transducer", min)
	}
}

// Figure 7: the GPM must actually move provisions around (dynamic demand)
// while every island keeps a meaningful share.
func TestFig7ProvisioningDynamics(t *testing.T) {
	r := quick(t, "fig7")
	lo, hi := r.Metrics["min_share_pct"], r.Metrics["max_share_pct"]
	if hi-lo < 2 {
		t.Errorf("provisions barely move (%.1f%%..%.1f%%); expected visible dynamics", lo, hi)
	}
	if lo < 5 || hi > 50 {
		t.Errorf("provision range [%.1f%%, %.1f%%] outside the plausible band (paper: ~13-25%%)", lo, hi)
	}
}

// Figure 8: actual island power tracks the moving target.
func TestFig8IslandTracking(t *testing.T) {
	r := quick(t, "fig8")
	if gap := r.Metrics["worst_gap_pct_chip"]; gap > 6 {
		t.Errorf("worst island tracking gap = %.2f%% of chip power, want tight tracking", gap)
	}
}

// Figure 9: PIC overshoot and settling inside the paper's envelope.
func TestFig9PICEnvelope(t *testing.T) {
	r := quick(t, "fig9")
	if over := r.Metrics["mean_overshoot"]; over > 0.04 {
		t.Errorf("mean PIC overshoot = %s, paper: mostly within 2%%", pct(over))
	}
	if over := r.Metrics["p95_overshoot"]; over > 0.12 {
		t.Errorf("95th-pct PIC overshoot = %s, too loose", pct(over))
	}
	if s := r.Metrics["mean_settle_invk"]; s > 8 {
		t.Errorf("mean settling = %.1f invocations, paper: 5-6", s)
	}
}

// Figure 10: chip-wide tracking within the 4%-ish envelope at epoch
// granularity.
func TestFig10ChipTracking(t *testing.T) {
	r := quick(t, "fig10")
	if over := r.Metrics["worst_overshoot"]; over > 0.05 {
		t.Errorf("worst chip overshoot = %s, paper: mostly within 4%%", pct(over))
	}
	if under := r.Metrics["worst_undershoot"]; under > 0.10 {
		t.Errorf("worst chip undershoot = %s", pct(under))
	}
}

// Figure 11: we track the budget; MaxBIPS stays below it.
func TestFig11BudgetCurves(t *testing.T) {
	r := quick(t, "fig11")
	if r.Metrics["maxbips_always_below"] != 1 {
		t.Error("MaxBIPS should always consume below the budget (discrete knobs)")
	}
	if over := r.Metrics["ours_worst_overshoot"]; over > 0.04 {
		t.Errorf("our scheme's worst mean overshoot = %s, should track from below", pct(over))
	}
	if gap := r.Metrics["ours_worst_undershoot"]; gap > 0.10 {
		t.Errorf("our scheme under-consumes by %s at worst; should track closely", pct(gap))
	}
}

// Figure 12: degradation is monotone in the budget and small at 80%.
func TestFig12DegradationCurve(t *testing.T) {
	r := quick(t, "fig12")
	d50, d80, d95 := r.Metrics["degradation_at_50"], r.Metrics["degradation_at_80"], r.Metrics["degradation_at_95"]
	if !(d50 > d80 && d80 >= d95) {
		t.Errorf("degradation not monotone: 50%%=%s 80%%=%s 95%%=%s", pct(d50), pct(d80), pct(d95))
	}
	// The paper reports ~4%% here. Our substrate's power curve is distinctly
	// sub-cubic in frequency (elasticity ~1.5 once leakage and structural
	// activity are accounted for), so the same 20%% power cut costs more
	// frequency — see EXPERIMENTS.md for the quantitative comparison.
	if d80 > 0.18 {
		t.Errorf("degradation at 80%% budget = %s, want bounded (paper: ~4%%)", pct(d80))
	}
	if d50 < 0.05 {
		t.Errorf("degradation at 50%% budget = %s, implausibly small", pct(d50))
	}
}

// Figure 13: MaxBIPS is competitive at 1 core/island but loses at larger
// islands; degradation grows with island size for our scheme.
func TestFig13IslandSize(t *testing.T) {
	r := quick(t, "fig13")
	if r.Metrics["ours_4"] < r.Metrics["ours_1"]-0.02 {
		t.Errorf("our degradation should not shrink with island size: 1=%s 4=%s",
			pct(r.Metrics["ours_1"]), pct(r.Metrics["ours_4"]))
	}
	// At 1 core/island the two schemes are comparable.
	if diff := r.Metrics["maxbips_1"] - r.Metrics["ours_1"]; diff < -0.05 {
		t.Errorf("at 1 core/island MaxBIPS (%s) should be comparable to ours (%s)",
			pct(r.Metrics["maxbips_1"]), pct(r.Metrics["ours_1"]))
	}
	// At 4 cores/island ours wins clearly.
	if r.Metrics["maxbips_4"] < r.Metrics["ours_4"] {
		t.Errorf("at 4 cores/island ours (%s) should beat MaxBIPS (%s)",
			pct(r.Metrics["ours_4"]), pct(r.Metrics["maxbips_4"]))
	}
}

// Figure 14: at the 100% budget the controller costs almost nothing.
func TestFig14FullBudgetNearZeroCost(t *testing.T) {
	r := quick(t, "fig14")
	if avg := r.Metrics["avg_degradation"]; avg > 0.03 {
		t.Errorf("average degradation at 100%% budget = %s, paper: 0.9%%", pct(avg))
	}
	if max := r.Metrics["max_degradation"]; max > 0.08 {
		t.Errorf("max degradation at 100%% budget = %s, paper: ~2.2%%", pct(max))
	}
}

// Figure 15: at scale, ours stays flat while MaxBIPS degrades much more.
func TestFig15Scaling(t *testing.T) {
	r := quick(t, "fig15")
	for _, cores := range []string{"16", "32"} {
		ours := r.Metrics["ours_"+cores]
		mb := r.Metrics["maxbips_"+cores]
		if ours > 0.12 {
			t.Errorf("%s cores: our degradation = %s, paper: ~4%%", cores, pct(ours))
		}
		if mb < ours {
			t.Errorf("%s cores: MaxBIPS (%s) should degrade at least as much as ours (%s)",
				cores, pct(mb), pct(ours))
		}
	}
}

// Figure 16: homogeneous islands (Mix-2) lose less performance.
func TestFig16MixSensitivity(t *testing.T) {
	r := quick(t, "fig16")
	if r.Metrics["Mix-2"] > r.Metrics["Mix-1"] {
		t.Errorf("Mix-2 (%s) should degrade less than Mix-1 (%s)",
			pct(r.Metrics["Mix-2"]), pct(r.Metrics["Mix-1"]))
	}
}

// Figure 17: the finer PIC interval does at least as well for every island
// size.
func TestFig17IntervalSensitivity(t *testing.T) {
	r := quick(t, "fig17")
	for _, size := range []string{"size1", "size2", "size4"} {
		fine := r.Metrics[size+"_pic2.5ms"]
		coarse := r.Metrics[size+"_pic5.0ms"]
		if fine > coarse+0.02 {
			t.Errorf("%s: fine interval (%s) should not lose to coarse (%s)",
				size, pct(fine), pct(coarse))
		}
	}
}

// Figure 18: the thermal-aware policy eliminates constraint violations at
// some performance cost; the performance-aware policy violates them.
func TestFig18ThermalPolicy(t *testing.T) {
	r := quick(t, "fig18")
	if r.Metrics["thermal_violations"] != 0 {
		t.Errorf("thermal-aware policy violated its own constraints %v times", r.Metrics["thermal_violations"])
	}
	if r.Metrics["perf_violation_frac"] <= 0 {
		t.Error("performance-aware policy should violate thermal constraints some of the time")
	}
	// Degradations of the two policies stay in the same band. (The paper
	// reports the thermal policy costing a little extra performance; on
	// this substrate the forced spreading is occasionally slightly
	// *better*, because Equation 4's cube-law assumption makes the
	// unconstrained policy concentrate more than a sub-cubic power curve
	// justifies — see EXPERIMENTS.md.)
	gap := r.Metrics["thermal_degradation"] - r.Metrics["perf_degradation"]
	if gap > 0.10 || gap < -0.10 {
		t.Errorf("thermal-aware (%s) vs performance-aware (%s) degradation gap too large",
			pct(r.Metrics["thermal_degradation"]), pct(r.Metrics["perf_degradation"]))
	}
}

// Figure 19: the variation-aware policy improves power/throughput, at some
// throughput cost, most visibly on the leakiest island.
func TestFig19VariationPolicy(t *testing.T) {
	r := quick(t, "fig19")
	if r.Metrics["mean_pt_improvement"] <= 0 {
		t.Errorf("mean power/throughput improvement = %s, want positive", pct(r.Metrics["mean_pt_improvement"]))
	}
	if r.Metrics["mean_throughput_loss"] < 0 {
		t.Error("variation-aware should trade some throughput")
	}
	if r.Metrics["mean_throughput_loss"] > 0.35 {
		t.Errorf("throughput loss = %s, implausibly large", pct(r.Metrics["mean_throughput_loss"]))
	}
}

// Extension 1: the energy policy's frontier — lower floors save more power,
// and every floor is honoured within tolerance.
func TestExt1EnergyFrontier(t *testing.T) {
	r := quick(t, "ext1")
	if r.Metrics["floor85_power_frac"] >= r.Metrics["floor95_power_frac"] {
		t.Errorf("lower floor should consume less power: 85%%→%.2f vs 95%%→%.2f",
			r.Metrics["floor85_power_frac"], r.Metrics["floor95_power_frac"])
	}
	for _, floor := range []float64{0.85, 0.90, 0.95} {
		got := r.Metrics[metricKeyFloor(floor)+"_bips_frac"]
		if got < floor-0.05 {
			t.Errorf("floor %.0f%%: throughput %.1f%% breaches the guarantee", floor*100, got*100)
		}
	}
}

func metricKeyFloor(f float64) string {
	return map[float64]string{0.85: "floor85", 0.90: "floor90", 0.95: "floor95"}[f]
}

// Extension 2: tracking error stays bounded under every injected fault.
func TestExt2FaultRobustness(t *testing.T) {
	r := quick(t, "ext2")
	for i := 0; i < 5; i++ {
		key := "err_case" + string(rune('0'+i))
		if e := r.Metrics[key]; e > 0.15 {
			t.Errorf("fault case %d: tracking error %.1f%%, want bounded <= 15%%", i, e*100)
		}
	}
}

// Extension 3: the identified elasticity is far from cubic, and the
// calibrated exponent does not lose throughput relative to the paper's.
func TestExt3CalibratedExponent(t *testing.T) {
	r := quick(t, "ext3")
	if e := r.Metrics["elasticity"]; e < 1.0 || e > 2.5 {
		t.Errorf("identified elasticity = %.2f, want ~1.5 on this substrate", e)
	}
	if r.Metrics["degradation_calibrated"] > r.Metrics["degradation_cube"]+0.03 {
		t.Errorf("calibrated exponent degrades more (%.1f%%) than the cube root (%.1f%%)",
			r.Metrics["degradation_calibrated"]*100, r.Metrics["degradation_cube"]*100)
	}
}

// TestCheckedHarnesses replays representative harnesses with the invariant
// suite attached (Options.Check): the default loop (fig12), the thermal
// policy (fig18) and fault injection (ext2, which exercises the
// budget-check gating for faulted runs). A violation anywhere fails the
// harness with a structured report.
func TestCheckedHarnesses(t *testing.T) {
	for _, id := range []string{"fig12", "fig18", "ext2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := d.Run(Options{Quick: true, Check: true})
			if err != nil {
				t.Fatalf("%s under -check: %v", id, err)
			}
			if r.Text == "" {
				t.Fatalf("%s produced no report", id)
			}
		})
	}
}

// Scorecard: every (mix, configuration) cell reports sane tracking error,
// settling time and efficiency, and the adaptive-gain PIC stays in the same
// tracking family as the fixed-gain baseline it rescales.
func TestScorecard(t *testing.T) {
	r := quick(t, "scorecard")
	mixes := []string{"mix1", "mix2"}
	configsKeys := []string{"fixed", "adaptive", "mpc", "cache"}
	for _, mix := range mixes {
		for _, cfg := range configsKeys {
			prefix := mix + "_" + cfg
			te, ok := r.Metrics[prefix+"_track_err"]
			if !ok {
				t.Fatalf("missing metric %s_track_err", prefix)
			}
			if !(te >= 0 && te < 0.5) {
				t.Errorf("%s: tracking error %.3f out of sane range", prefix, te)
			}
			if bw := r.Metrics[prefix+"_bips_per_w"]; !(bw > 0) {
				t.Errorf("%s: BIPS/W = %v, want positive", prefix, bw)
			}
			if se := r.Metrics[prefix+"_settle_epochs"]; se < 0 {
				t.Errorf("%s: settle epochs %v negative", prefix, se)
			}
		}
		fixed, adaptive := r.Metrics[mix+"_fixed_track_err"], r.Metrics[mix+"_adaptive_track_err"]
		if adaptive > fixed*2+0.02 {
			t.Errorf("%s: adaptive tracking error %.3f far worse than fixed %.3f", mix, adaptive, fixed)
		}
	}
	if len(r.Sets) != len(mixes) {
		t.Errorf("scorecard exported %d trace sets, want one per mix (%d)", len(r.Sets), len(mixes))
	}
}

// BenchmarkFig15Scaling times the Figure 15 harness in Quick mode: 14 runs
// over two workload keys (16- and 32-core Mix-3), run as one farm batch.
// Calibrations are cached per process and primed before the timer, so an
// op is the batch and its report.
func BenchmarkFig15Scaling(b *testing.B) {
	for _, replicas := range []int{1, 2} {
		if _, err := spec(workload.Mix3(replicas)).Calibration(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runFig15(Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}
