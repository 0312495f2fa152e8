// Variation example: the §IV-B scenario. The die suffers intra-die process
// variation — islands 1, 2 and 3 leak 1.2x, 1.5x and 2x as much as island 4.
// The variation-aware GPM hill-climbs each island's energy-per-instruction
// curve, settling leaky silicon at lower provisions than tight silicon and
// improving the chip's power/throughput ratio at some throughput cost.
package main

import (
	"fmt"
	"log"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Variation = variation.PaperIslands(2) // 1.2x / 1.5x / 2.0x / 1.0x

	// Calibrate the chip *with* its variation — per-die characterization.
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	budget := cal.BudgetW(0.80)

	type outcome struct {
		allocW []float64
		bips   float64
		power  float64
	}
	run := func(policy gpm.Policy) outcome {
		cmp, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		c, err := core.New(cmp, core.Config{BudgetW: budget, Policy: policy, Transducers: cal.Transducers})
		if err != nil {
			log.Fatal(err)
		}
		c.Run(6 * 20)
		var o outcome
		const n = 20 * 20
		for k := 0; k < n; k++ {
			r := c.Step()
			o.bips += r.Sim.TotalBIPS / n
			o.power += r.Sim.ChipPowerW / n
			// r.AllocW aliases controller scratch that the next Step
			// overwrites, so keep a copy rather than the slice itself.
			o.allocW = append(o.allocW[:0], r.AllocW...)
		}
		return o
	}

	perf := run(&gpm.PerformanceAware{})
	vara := run(&gpm.VariationAware{StepFrac: 0.08, HoldIntervals: 1, MinShareFrac: 0.7})

	leaks := []float64{1.2, 1.5, 2.0, 1.0}
	fmt.Printf("Budget %.1f W; island leakage multipliers %v\n\n", budget, leaks)
	fmt.Println("Final allocations (W):")
	fmt.Println("island  leakage  performance-aware  variation-aware")
	for i := range leaks {
		fmt.Printf("%6d  %6.1fx  %17.1f  %15.1f\n", i+1, leaks[i], perf.allocW[i], vara.allocW[i])
	}
	fmt.Printf("\n                     power      BIPS    W per BIPS\n")
	fmt.Printf("performance-aware  %6.1f W  %7.2f  %10.2f\n", perf.power, perf.bips, perf.power/perf.bips)
	fmt.Printf("variation-aware    %6.1f W  %7.2f  %10.2f\n", vara.power, vara.bips, vara.power/vara.bips)
	fmt.Printf("\npower/throughput improvement: %.1f%% for %.1f%% lower throughput\n",
		(1-(vara.power/vara.bips)/(perf.power/perf.bips))*100,
		(1-vara.bips/perf.bips)*100)
}
