package core

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
	"github.com/cpm-sim/cpm/internal/workload"
)

// calOnce caches the default-mix calibration: it is the expensive common
// fixture of most tests here.
var calCache = map[string]Calibration{}

func calibrated(t *testing.T, mix workload.Mix) (sim.Config, Calibration) {
	t.Helper()
	cfg := sim.DefaultConfig(mix)
	if c, ok := calCache[mix.Name]; ok {
		return cfg, c
	}
	cal, err := Calibrate(cfg, 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	calCache[mix.Name] = cal
	return cfg, cal
}

func newCPM(t *testing.T, budgetFrac float64) (*CPM, Calibration) {
	t.Helper()
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cmp, Config{
		BudgetW:     cal.BudgetW(budgetFrac),
		Transducers: cal.Transducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cal
}

func TestCalibrationQuality(t *testing.T) {
	_, cal := calibrated(t, workload.Mix1())
	if cal.UnmanagedPowerW <= 0 || cal.UnmanagedBIPS <= 0 {
		t.Fatalf("degenerate unmanaged baseline: %+v", cal)
	}
	for i, r2 := range cal.R2 {
		if r2 < 0.80 {
			t.Errorf("island %d transducer R² = %.3f, want strong linearity (paper: ≈0.96)", i, r2)
		}
	}
	// The plant gain identified on this substrate should land in the same
	// family as the paper's 0.79 (island power fraction per normalized
	// frequency step).
	if cal.PlantGain < 0.3 || cal.PlantGain > 1.2 {
		t.Errorf("plant gain = %.3f, want within (0.3, 1.2) around the paper's 0.79", cal.PlantGain)
	}
	t.Logf("identified plant gain a = %.3f (paper: 0.79); transducer R² = %v", cal.PlantGain, cal.R2)
}

func TestNewValidation(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Config{BudgetW: 50}); err == nil {
		t.Error("nil chip should be rejected")
	}
	if _, err := New(cmp, Config{BudgetW: 0, Transducers: cal.Transducers}); err == nil {
		t.Error("zero budget should be rejected")
	}
	if _, err := New(cmp, Config{BudgetW: 50, Transducers: cal.Transducers[:1]}); err == nil {
		t.Error("transducer arity mismatch should be rejected")
	}
	if _, err := New(cmp, Config{BudgetW: 50, UseOraclePower: true}); err != nil {
		t.Errorf("oracle mode should not need transducers: %v", err)
	}
}

// The headline claim: the managed chip tracks the budget closely — within a
// few percent — while the unmanaged chip would overshoot it substantially.
func TestTracksChipBudget(t *testing.T) {
	c, cal := newCPM(t, 0.8)
	budget := cal.BudgetW(0.8)
	// Let the loop converge (2 GPM epochs), then measure.
	// Converge past the startup transient (the paper's plots likewise show
	// steady operation), then measure at two granularities: per PIC
	// interval (dominated by workload phase noise on this substrate) and
	// per GPM epoch — the granularity of the paper's Figure 10, whose 4%
	// envelope we check with a small margin.
	c.Run(120)
	var mean, worstInterval, worstEpoch float64
	epochSum, epochN := 0.0, 0
	n := 400
	for k := 0; k < n; k++ {
		r := c.Step()
		mean += r.Sim.ChipPowerW
		if over := (r.Sim.ChipPowerW - budget) / budget; over > worstInterval {
			worstInterval = over
		}
		epochSum += r.Sim.ChipPowerW
		epochN++
		if epochN == 20 {
			if over := (epochSum/20 - budget) / budget; over > worstEpoch {
				worstEpoch = over
			}
			epochSum, epochN = 0, 0
		}
	}
	mean /= float64(n)
	if math.Abs(mean-budget)/budget > 0.04 {
		t.Errorf("mean power %.1f W vs budget %.1f W: tracking error %.1f%%",
			mean, budget, 100*math.Abs(mean-budget)/budget)
	}
	if worstEpoch > 0.05 {
		t.Errorf("worst per-epoch overshoot = %.1f%%, paper's Figure 10 envelope is ≈4%%", worstEpoch*100)
	}
	if worstInterval > 0.15 {
		t.Errorf("worst per-interval overshoot = %.1f%%, want bounded phase-noise spikes", worstInterval*100)
	}
	t.Logf("mean %.1f W vs budget %.1f W; worst epoch %.2f%%, worst interval %.2f%%",
		mean, budget, worstEpoch*100, worstInterval*100)
}

func TestGPMInvokedOnSchedule(t *testing.T) {
	c, _ := newCPM(t, 0.8)
	results := c.Run(61)
	for k, r := range results {
		// First epoch (k=0) has no measurements yet; GPM fires from k=20.
		wantGPM := k > 0 && k%20 == 0
		if r.GPMInvoked != wantGPM {
			t.Errorf("interval %d: GPMInvoked = %v, want %v", k, r.GPMInvoked, wantGPM)
		}
	}
}

func TestAllocationsSumToBudget(t *testing.T) {
	c, cal := newCPM(t, 0.8)
	budget := cal.BudgetW(0.8)
	for k := 0; k < 100; k++ {
		r := c.Step()
		sum := stats.Sum(r.AllocW)
		if sum > budget+1e-6 {
			t.Fatalf("interval %d: Σalloc=%v exceeds budget %v", k, sum, budget)
		}
		// The performance-aware policy spends the whole budget.
		if r.GPMInvoked && math.Abs(sum-budget) > 1e-6 {
			t.Fatalf("interval %d: Σalloc=%v, want %v", k, sum, budget)
		}
	}
}

// Per-island tracking (Figure 8): once converged, each island's measured
// power stays near its provision.
func TestIslandsTrackProvisions(t *testing.T) {
	c, _ := newCPM(t, 0.8)
	c.Run(60)
	miss := 0
	total := 0
	for k := 0; k < 200; k++ {
		r := c.Step()
		for i, ir := range r.Sim.Islands {
			total++
			// One DVFS quantum of island power is the fundamental tracking
			// resolution.
			quantum := 0.15 * c.Chip().IslandMaxPowerW(i)
			if math.Abs(ir.PowerW-r.AllocW[i]) > quantum {
				miss++
			}
		}
	}
	if frac := float64(miss) / float64(total); frac > 0.25 {
		t.Errorf("islands off their provision %d%% of observations", int(frac*100))
	}
}

// Lowering the budget must lower both power and throughput (Figures 11/12).
func TestBudgetSweepMonotonicity(t *testing.T) {
	type point struct{ power, bips float64 }
	measure := func(frac float64) point {
		c, cal := newCPM(t, frac)
		_ = cal
		c.Run(60)
		var p point
		for k := 0; k < 120; k++ {
			r := c.Step()
			p.power += r.Sim.ChipPowerW
			p.bips += r.Sim.TotalBIPS
		}
		p.power /= 120
		p.bips /= 120
		return p
	}
	lo := measure(0.55)
	hi := measure(0.90)
	if lo.power >= hi.power {
		t.Errorf("power at 55%% budget (%v) should be below 90%% (%v)", lo.power, hi.power)
	}
	if lo.bips >= hi.bips {
		t.Errorf("throughput at 55%% budget (%v) should be below 90%% (%v)", lo.bips, hi.bips)
	}
}

func TestOracleModeTracksAtLeastAsWell(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	budget := cal.BudgetW(0.8)
	run := func(oracle bool) float64 {
		cmp, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cmp, Config{
			BudgetW:        budget,
			Transducers:    cal.Transducers,
			UseOraclePower: oracle,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(60)
		var sse float64
		for k := 0; k < 120; k++ {
			r := c.Step()
			e := (r.Sim.ChipPowerW - budget) / budget
			sse += e * e
		}
		return sse
	}
	trans := run(false)
	oracle := run(true)
	// The transducer is a proxy; oracle feedback should not be wildly
	// worse. (It can be slightly worse through quantization luck.)
	if oracle > trans*3 {
		t.Errorf("oracle tracking SSE (%v) much worse than transducer (%v)?", oracle, trans)
	}
	t.Logf("tracking SSE: transducer=%.5f oracle=%.5f", trans, oracle)
}

func TestSetBudgetTakesEffect(t *testing.T) {
	c, cal := newCPM(t, 0.9)
	c.Run(80)
	c.SetBudgetW(cal.BudgetW(0.6))
	c.Run(80) // converge to the new budget
	var mean float64
	for k := 0; k < 60; k++ {
		mean += c.Step().Sim.ChipPowerW
	}
	mean /= 60
	if math.Abs(mean-cal.BudgetW(0.6))/cal.BudgetW(0.6) > 0.08 {
		t.Errorf("after budget change, mean power %v vs new budget %v", mean, cal.BudgetW(0.6))
	}
}

func TestEqualSharePolicyAlsoTracks(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cmp, Config{
		BudgetW:     cal.BudgetW(0.8),
		Policy:      gpm.EqualShare{},
		Transducers: cal.Transducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(60)
	var mean float64
	for k := 0; k < 100; k++ {
		mean += c.Step().Sim.ChipPowerW
	}
	mean /= 100
	// Equal share cannot reallocate between islands, so tracking is looser
	// (some islands can't spend their share), but power must not exceed
	// budget materially.
	if mean > cal.BudgetW(0.8)*1.05 {
		t.Errorf("equal-share mean power %v exceeds budget %v", mean, cal.BudgetW(0.8))
	}
}

func TestCalibrateValidation(t *testing.T) {
	cfg := sim.DefaultConfig(workload.Mix1())
	if _, err := Calibrate(cfg, 0, 1); err == nil {
		t.Error("too few measurement intervals should error")
	}
}

func TestPICAccessor(t *testing.T) {
	cfg := sim.DefaultConfig(workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cmp, Config{BudgetW: 30, UseOraclePower: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cmp.NumIslands(); i++ {
		if c.PIC(i) == nil {
			t.Fatalf("PIC(%d) is nil", i)
		}
	}
}
