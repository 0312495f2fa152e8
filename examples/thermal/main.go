// Thermal example: the Figure 18 scenario. Eight single-core islands run
// CPU-bound SPEC workloads on a 2x4 die; the performance-aware GPM, left to
// itself, concentrates the tight power budget on a few favoured islands —
// sometimes two adjacent ones, the recipe for a hotspot. Wrapping it in the
// thermal-aware policy vetoes sustained concentration on neighbours.
package main

import (
	"fmt"
	"log"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/thermal"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	cfg := sim.DefaultConfig(workload.ThermalMix())
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	budget := cal.BudgetW(0.50) // tight budget: concentration is possible

	fp, err := thermal.Grid(2, 4) // the Figure 18(a) die: cores 1-4 over 5-8
	if err != nil {
		log.Fatal(err)
	}
	constraints := func() *gpm.ThermalAware {
		return &gpm.ThermalAware{
			Base:                 &gpm.PerformanceAware{},
			Floorplan:            fp,
			AdjacentPairCap:      0.30, // two neighbours: <=30% of budget...
			ConsecutiveLimit:     2,    // ...for at most 2 consecutive epochs
			SoloCap:              0.20, // one island: <=20% of budget...
			SoloConsecutiveLimit: 4,    // ...for at most 4 consecutive epochs
		}
	}

	run := func(name string, policy gpm.Policy) (allocs [][]float64, bips, peak float64) {
		cmp, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		c, err := core.New(cmp, core.Config{BudgetW: budget, Policy: policy, Transducers: cal.Transducers})
		if err != nil {
			log.Fatal(err)
		}
		c.Run(6 * 20)
		for k := 0; k < 20*20; k++ {
			r := c.Step()
			if r.GPMInvoked {
				allocs = append(allocs, append([]float64(nil), r.AllocW...))
			}
			bips += r.Sim.TotalBIPS / (20 * 20)
			if r.Sim.MaxTempC > peak {
				peak = r.Sim.MaxTempC
			}
		}
		fmt.Printf("%-18s  %.2f BIPS, peak %.1f degC\n", name, bips, peak)
		return
	}

	fmt.Printf("Budget: %.1f W (50%% of the chip's %.1f W demand)\n\n", budget, cal.UnmanagedPowerW)
	perfAllocs, _, _ := run("performance-aware", &gpm.PerformanceAware{})
	thermAllocs, _, _ := run("thermal-aware", constraints())

	checker := constraints()
	fmt.Printf("\nHotspot-constraint violations over %d GPM epochs:\n", len(perfAllocs))
	fmt.Printf("  performance-aware: %d\n", checker.Violations(budget, perfAllocs))
	checker = constraints()
	fmt.Printf("  thermal-aware:     %d\n", checker.Violations(budget, thermAllocs))
}
