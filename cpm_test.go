package cpm_test

import (
	"math"
	"testing"

	cpm "github.com/cpm-sim/cpm"
)

// TestPublicAPIQuickstart exercises the package-level facade end to end the
// way the doc comment advertises: calibrate, build, manage, observe.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := cpm.DefaultConfig(cpm.Mix1())
	cal, err := cpm.Calibrate(cfg, 40, 160)
	if err != nil {
		t.Fatal(err)
	}
	if cal.UnmanagedPowerW <= 0 || cal.PlantGain <= 0 {
		t.Fatalf("degenerate calibration: %+v", cal)
	}
	chip, err := cpm.NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chip.NumIslands() != 4 || chip.NumCores() != 8 {
		t.Fatalf("Mix-1 topology wrong: %d islands / %d cores", chip.NumIslands(), chip.NumCores())
	}
	budget := cal.BudgetW(0.8)
	ctl, err := cpm.NewController(chip, cpm.ControllerConfig{
		BudgetW:     budget,
		Gains:       cpm.PaperGains,
		Transducers: cal.Transducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Run(120)
	var mean float64
	const n = 200
	for i := 0; i < n; i++ {
		mean += ctl.Step().Sim.ChipPowerW / n
	}
	if math.Abs(mean-budget)/budget > 0.06 {
		t.Errorf("facade-managed chip at %.1f W vs %.1f W budget", mean, budget)
	}
}

func TestPublicMixes(t *testing.T) {
	if cpm.Mix1().Cores() != 8 || cpm.Mix2().Cores() != 8 {
		t.Error("8-core mixes wrong")
	}
	if cpm.Mix3(2).Cores() != 32 {
		t.Error("Mix3 replication wrong")
	}
	if cpm.ThermalMix().Cores() != 8 {
		t.Error("thermal mix wrong")
	}
	if cpm.PaperVariation(2).CoreMult(4) != 2.0 {
		t.Error("paper variation map wrong")
	}
}
