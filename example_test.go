package cpm_test

import (
	"bytes"
	"fmt"
	"log"

	cpm "github.com/cpm-sim/cpm"
)

// Example_manage shows the paper's methodology end to end: calibrate the
// chip offline (§II-D), then cap it at 80% of its unmanaged demand with the
// two-tier GPM+PIC controller.
func Example_manage() {
	cfg := cpm.DefaultConfig(cpm.Mix1()) // Table I chip, Mix-1 workload

	cal, err := cpm.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := cpm.NewChip(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := cpm.NewController(chip, cpm.ControllerConfig{
		BudgetW:     cal.BudgetW(0.80),
		Gains:       cpm.PaperGains, // (0.4, 0.4, 0.3)
		Transducers: cal.Transducers,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl.Run(120) // 6 GPM epochs of convergence
	var mean float64
	for i := 0; i < 200; i++ {
		mean += ctl.Step().Sim.ChipPowerW / 200
	}
	fmt.Printf("tracking within %.0f%% of budget\n", 100*abs(mean-cal.BudgetW(0.8))/cal.BudgetW(0.8)+0.5)
}

// Example_policies swaps the GPM policy: the same controller machinery runs
// the thermal-aware or variation-aware policies of §IV, or any user-defined
// one implementing cpm.Policy.
func Example_policies() {
	cfg := cpm.DefaultConfig(cpm.Mix1())
	cfg.Variation = cpm.PaperVariation(2) // §IV-B: islands leak 1.2x/1.5x/2x/1x
	cal, err := cpm.Calibrate(cfg, 40, 160)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := cpm.NewChip(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := cpm.NewController(chip, cpm.ControllerConfig{
		BudgetW:     cal.BudgetW(0.80),
		Policy:      &cpm.VariationAware{StepFrac: 0.08, HoldIntervals: 1, MinShareFrac: 0.7},
		Transducers: cal.Transducers,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctl.Run(40)
	_ = ctl.Step()
}

// Example_traces records one run's workload behaviour and replays it — the
// recorded trace is frequency-independent, so different controllers can be
// compared on identical behaviour.
func Example_traces() {
	set, err := cpm.RecordTraces(cpm.DefaultConfig(cpm.Mix1()), 100)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cpm.SaveTraces(&buf, set); err != nil {
		log.Fatal(err)
	}
	loaded, err := cpm.LoadTraces(&buf)
	if err != nil {
		log.Fatal(err)
	}
	replayChip, err := cpm.NewReplayChip(cpm.DefaultConfig(cpm.Mix1()), loaded)
	if err != nil {
		log.Fatal(err)
	}
	_ = replayChip.Step()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
