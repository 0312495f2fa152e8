package engine

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/maxbips"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

func testConfig(t testing.TB) sim.Config {
	t.Helper()
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = 7
	return cfg
}

func newManaged(t testing.TB, cfg sim.Config, budgetW float64) *CPMRunner {
	t.Helper()
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(cmp, core.Config{BudgetW: budgetW, UseOraclePower: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewCPMRunner(ctl)
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, SessionConfig{MeasureEpochs: 1}); err == nil {
		t.Error("nil runner accepted")
	}
	cmp, err := sim.New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(NewChipRunner(cmp), SessionConfig{}); err == nil {
		t.Error("zero measurement window accepted")
	}
	if _, err := NewSession(NewChipRunner(cmp), SessionConfig{MeasureEpochs: 1, WarmEpochs: -1}); err == nil {
		t.Error("negative warmup accepted")
	}
}

// TestSessionUnmanagedSummary checks that the session's aggregates equal a
// hand-rolled loop over an identical chip.
func TestSessionUnmanagedSummary(t *testing.T) {
	cfg := testConfig(t)
	const warm, meas, period = 1, 3, 20

	// Reference: bespoke loop, as the experiment harnesses used to do.
	ref, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < warm*period; k++ {
		ref.Step()
	}
	var wantPow, wantInstr float64
	for k := 0; k < meas*period; k++ {
		r := ref.Step()
		wantPow += r.ChipPowerW
		for _, ir := range r.Islands {
			wantInstr += ir.Instructions
		}
	}
	wantPow /= meas * period

	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(NewChipRunner(cmp), SessionConfig{WarmEpochs: warm, MeasureEpochs: meas, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Run()

	if math.Abs(sum.MeanPowerW-wantPow) > 1e-9*wantPow {
		t.Errorf("MeanPowerW = %v, want %v", sum.MeanPowerW, wantPow)
	}
	if math.Abs(sum.Instructions-wantInstr) > 1e-6 {
		t.Errorf("Instructions = %v, want %v", sum.Instructions, wantInstr)
	}
	if len(sum.Epochs) != meas || len(sum.EpochInstr) != meas {
		t.Fatalf("epoch series lengths = %d/%d, want %d", len(sum.Epochs), len(sum.EpochInstr), meas)
	}
	var epochInstr float64
	for _, v := range sum.EpochInstr {
		epochInstr += v
	}
	if math.Abs(epochInstr-sum.Instructions) > 1e-6 {
		t.Errorf("EpochInstr sums to %v, Instructions = %v", epochInstr, sum.Instructions)
	}
	if sum.IslandAlloc != nil || sum.AllocTrace != nil {
		t.Error("unmanaged run recorded allocations")
	}
	if sum.WorstEpochOver != 0 {
		t.Error("unmanaged run has budget overshoot")
	}
	for i, series := range sum.IslandPower {
		if len(series) != meas {
			t.Errorf("island %d power series length %d, want %d", i, len(series), meas)
		}
	}
}

// TestSessionManagedObservers checks the observer event protocol on a
// managed run: ordering, counts, epoch payloads and gpm-layer observations.
func TestSessionManagedObservers(t *testing.T) {
	cfg := testConfig(t)
	const warm, meas, period = 2, 3, 20
	r := newManaged(t, cfg, 30)

	var starts, ends, steps, measured, epochs, gpmObs int
	var lastInfo RunInfo
	obs := Funcs{
		OnRunStart: func(info RunInfo) { starts++; lastInfo = info },
		OnStep: func(s Step) {
			steps++
			if s.Measured {
				measured++
			}
			if s.GPMInvoked && len(s.GPMObs) > 0 {
				gpmObs++
			}
		},
		OnEpoch: func(e Epoch) {
			if e.Index != epochs {
				t.Errorf("epoch index %d, want %d", e.Index, epochs)
			}
			if e.BudgetW != 30 {
				t.Errorf("epoch budget %v, want 30", e.BudgetW)
			}
			if len(e.AllocW) != 4 || len(e.IslandPowerW) != 4 || len(e.IslandBIPS) != 4 {
				t.Errorf("epoch island payload lengths %d/%d/%d, want 4",
					len(e.AllocW), len(e.IslandPowerW), len(e.IslandBIPS))
			}
			epochs++
		},
		OnRunEnd: func(sum *Summary) {
			ends++
			if sum.MeanPowerW <= 0 {
				t.Error("summary delivered before aggregation")
			}
		},
	}
	s, err := NewSession(r, SessionConfig{
		WarmEpochs: warm, MeasureEpochs: meas, Period: period, BudgetW: 30,
		Label: "cpm",
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Run()

	if starts != 1 || ends != 1 {
		t.Errorf("RunStart/RunEnd = %d/%d, want 1/1", starts, ends)
	}
	if steps != (warm+meas)*period || measured != meas*period {
		t.Errorf("steps = %d (measured %d), want %d (%d)", steps, measured, (warm+meas)*period, meas*period)
	}
	if epochs != meas {
		t.Errorf("epochs observed = %d, want %d", epochs, meas)
	}
	if gpmObs == 0 {
		t.Error("no gpm-layer observations surfaced through the provision hook")
	}
	if lastInfo.Islands != 4 || lastInfo.Cores != 8 || lastInfo.BudgetW != 30 || lastInfo.Label != "cpm" {
		t.Errorf("bad RunInfo: %+v", lastInfo)
	}
	if len(sum.AllocTrace) != meas {
		t.Errorf("AllocTrace has %d entries, want %d (one per measured GPM invocation)", len(sum.AllocTrace), meas)
	}
	for i, series := range sum.IslandAlloc {
		if len(series) != meas {
			t.Errorf("island %d alloc series length %d, want %d", i, len(series), meas)
		}
	}
}

// TestSessionMaxBIPSMatchesBespokeLoop pins the MaxBIPSRunner to the loop
// structure the experiments package used before the engine existed.
func TestSessionMaxBIPSMatchesBespokeLoop(t *testing.T) {
	cfg := testConfig(t)
	const warm, meas, period = 1, 2, 20
	const budget = 30.0

	build := func() (*sim.CMP, *maxbips.Planner) {
		cmp, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := maxbips.New(StaticPredictionTable(cmp))
		if err != nil {
			t.Fatal(err)
		}
		return cmp, pl
	}

	// Reference: the historical inline loop.
	refCMP, refPl := build()
	n := refCMP.NumIslands()
	obs := make([]maxbips.IslandObs, n)
	epochPow := make([]float64, n)
	epochBIPS := make([]float64, n)
	haveObs := false
	var wantPow float64
	total := (warm + meas) * period
	for k := 0; k < total; k++ {
		if k%period == 0 && haveObs {
			for i := 0; i < n; i++ {
				obs[i] = maxbips.IslandObs{Level: refCMP.Level(i), PowerW: epochPow[i] / period, BIPS: epochBIPS[i] / period}
				epochPow[i], epochBIPS[i] = 0, 0
			}
			for i, lvl := range refPl.Choose(budget, obs) {
				refCMP.SetLevel(i, lvl)
			}
		} else if k%period == 0 {
			for i := range epochPow {
				epochPow[i], epochBIPS[i] = 0, 0
			}
		}
		r := refCMP.Step()
		for i, ir := range r.Islands {
			epochPow[i] += ir.PowerW
			epochBIPS[i] += ir.BIPS
		}
		if (k+1)%period == 0 {
			haveObs = true
		}
		if k >= warm*period {
			wantPow += r.ChipPowerW
		}
	}
	wantPow /= meas * period

	cmp, pl := build()
	runner, err := NewMaxBIPSRunner(cmp, pl, budget, period)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(runner, SessionConfig{WarmEpochs: warm, MeasureEpochs: meas, Period: period, BudgetW: budget})
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Run()
	if sum.MeanPowerW != wantPow {
		t.Errorf("MaxBIPS session mean power = %v, bespoke loop = %v", sum.MeanPowerW, wantPow)
	}
}

func TestDegradationGuards(t *testing.T) {
	cases := []struct {
		name      string
		run, base float64
		want      float64
	}{
		{"zero baseline", 100, 0, 0},
		{"near-zero baseline", 100, 1e-12, 0},
		{"negative baseline", 100, -5, 0},
		{"both zero", 0, 0, 0},
		{"normal", 90, 100, 0.1},
		{"run exceeds baseline", 110, 100, 0},
	}
	for _, c := range cases {
		got := DegradationRatio(c.run, c.base)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: DegradationRatio(%v, %v) = %v, want %v", c.name, c.run, c.base, got, c.want)
		}
		gotSum := Degradation(Summary{Instructions: c.run}, Summary{Instructions: c.base})
		if gotSum != got {
			t.Errorf("%s: Degradation disagrees with DegradationRatio", c.name)
		}
	}
}
