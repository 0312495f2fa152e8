package core

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Robustness under injected faults: the point of formal feedback control
// over open-loop heuristics (§II-D) is predictable behaviour when the
// models are wrong or parts fail, so we test exactly that end to end.

// runFaulted runs the default-mix CPM at an 80% budget under a fault plan
// and returns (mean power, budget).
func runFaulted(t *testing.T, plan *FaultPlan) (mean, budget float64) {
	t.Helper()
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget = cal.BudgetW(0.8)
	c, err := New(cmp, Config{BudgetW: budget, Transducers: cal.Transducers, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(140)
	const n = 300
	for k := 0; k < n; k++ {
		mean += c.Step().Sim.ChipPowerW / n
	}
	return mean, budget
}

func TestRobustToSensorNoise(t *testing.T) {
	// 15% multiplicative noise on every utilization reading: the integral
	// action must average it out; mean tracking error stays small.
	mean, budget := runFaulted(t, &FaultPlan{UtilNoiseStd: 0.15, StuckIsland: -1, Seed: 5})
	if err := math.Abs(mean-budget) / budget; err > 0.06 {
		t.Errorf("mean tracking error under 15%% sensor noise = %.1f%%, want <= 6%%", err*100)
	}
}

func TestSensorBiasShiftsSteadyStatePredictably(t *testing.T) {
	// A mis-calibrated counter reading 10% high makes the controller think
	// the island is hotter than it is → it settles *below* the budget (the
	// safe direction), with bounded offset. Reading 10% low inverts that.
	low, budget := runFaulted(t, &FaultPlan{UtilBiasMult: 1.10, StuckIsland: -1, Seed: 6})
	high, _ := runFaulted(t, &FaultPlan{UtilBiasMult: 0.90, StuckIsland: -1, Seed: 6})
	if low >= high {
		t.Errorf("over-reading sensor should under-consume: %.1f W vs %.1f W", low, high)
	}
	for name, v := range map[string]float64{"bias+10%": low, "bias-10%": high} {
		if off := math.Abs(v-budget) / budget; off > 0.15 {
			t.Errorf("%s: steady-state offset %.1f%%, want bounded <= 15%%", name, off*100)
		}
	}
}

func TestStuckActuatorIsContained(t *testing.T) {
	// Island 0's regulator fails pinned at the top level. The GPM observes
	// its (estimated) consumption and the remaining islands absorb the
	// budget shortfall; the chip must not run away.
	mean, budget := runFaulted(t, &FaultPlan{StuckIsland: 0, StuckLevel: 7, Seed: 7})
	if mean > budget*1.12 {
		t.Errorf("chip power %.1f W with a stuck island, want <= %.1f W (budget %.1f +12%%)",
			mean, budget*1.12, budget)
	}
	// And the healthy islands must actually have been throttled below what
	// they'd consume in a fault-free run at the same budget.
	clean, _ := runFaulted(t, &FaultPlan{StuckIsland: -1, Seed: 7})
	if mean < clean*0.7 {
		t.Errorf("implausible collapse under single actuator fault: %.1f W vs %.1f W clean", mean, clean)
	}
}

func TestSurvivesDroppedGPMInvocations(t *testing.T) {
	// Half the GPM invocations never happen. Because the PICs keep capping
	// at their last provisions — the §II-C decoupling — the chip still
	// tracks the budget, just with staler allocations.
	mean, budget := runFaulted(t, &FaultPlan{DropGPMProb: 0.5, StuckIsland: -1, Seed: 8})
	if err := math.Abs(mean-budget) / budget; err > 0.07 {
		t.Errorf("mean tracking error with 50%% dropped GPM invocations = %.1f%%, want <= 7%%", err*100)
	}
}

// TestPlantGainDriftWithinCertifiedRange verifies the §II-D guarantee end
// to end: the controller, tuned and calibrated on the nominal chip, remains
// stable when deployed on a chip whose power responds twice as strongly to
// frequency (g = 2 < the certified bound). Transducers are recalibrated on
// the drifted chip (sensing tracks the silicon; the PID gains do not).
func TestPlantGainDriftWithinCertifiedRange(t *testing.T) {
	mkCfg := func(scale float64) sim.Config {
		cfg := sim.DefaultConfig(workload.Mix1())
		m := power.DefaultModel()
		dyn, err := power.NewDynamicModel(10*scale, m.Table.Max(), 0.10, power.DefaultUnitWeights)
		if err != nil {
			t.Fatal(err)
		}
		m.Dynamic = dyn
		cfg.Power = m
		return cfg
	}
	for _, scale := range []float64{1.0, 1.6} {
		cfg := mkCfg(scale)
		cal, err := Calibrate(cfg, 40, 160)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		budget := cal.BudgetW(0.8)
		c, err := New(cmp, Config{BudgetW: budget, Transducers: cal.Transducers})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(140)
		var mean, sq float64
		const n = 200
		for k := 0; k < n; k++ {
			p := c.Step().Sim.ChipPowerW
			mean += p / n
			sq += p * p / n
		}
		sd := math.Sqrt(math.Max(0, sq-mean*mean))
		if err := math.Abs(mean-budget) / budget; err > 0.06 {
			t.Errorf("gain scale %.1f: tracking error %.1f%%", scale, err*100)
		}
		// No oscillatory blow-up: power fluctuation stays workload-sized.
		if sd/mean > 0.12 {
			t.Errorf("gain scale %.1f: power fluctuation %.1f%% of mean — loop ringing?", scale, sd/mean*100)
		}
	}
}
