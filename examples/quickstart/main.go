// Quickstart: build the paper's default 8-core CMP (Table I, Mix-1),
// identify the plant and transducers offline (§II-D), wire the two-tier CPM
// controller (GPM + per-island PIDs) over it, and cap the chip at 80% of its
// unmanaged power demand while watching what that costs in throughput.
package main

import (
	"fmt"
	"log"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	// 1. Describe the chip: Mix-1 pairs one CPU-bound with one memory-bound
	//    PARSEC application on each of 4 two-core voltage/frequency islands.
	cfg := sim.DefaultConfig(workload.Mix1())

	// 2. Offline system identification: unmanaged demand, utilization→power
	//    transducers, plant gain.
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Unmanaged chip demand: %.1f W at %.2f BIPS\n", cal.UnmanagedPowerW, cal.UnmanagedBIPS)
	fmt.Printf("Identified plant gain a = %.3f (paper: 0.79)\n\n", cal.PlantGain)

	// 3. Build the chip and the CPM controller with an 80% budget.
	budget := cal.BudgetW(0.80)
	cmp, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cpm, err := core.New(cmp, core.Config{
		BudgetW:     budget,
		Transducers: cal.Transducers,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run: 6 GPM epochs of convergence, then 20 measured epochs
	//    (1 epoch = 20 PIC invocations = 50 ms of chip time).
	cpm.Run(6 * 20)
	fmt.Printf("Managing to a %.1f W budget (80%% of demand):\n", budget)
	fmt.Println("epoch   chip W   vs budget   BIPS   island allocations (W)")
	var meanPower, meanBIPS float64
	const epochs = 20
	for e := 0; e < epochs; e++ {
		var pw, bips float64
		var alloc []float64
		for k := 0; k < 20; k++ {
			r := cpm.Step()
			pw += r.Sim.ChipPowerW
			bips += r.Sim.TotalBIPS
			// r.AllocW aliases controller scratch that the next Step
			// overwrites, so keep a copy rather than the slice itself.
			alloc = append(alloc[:0], r.AllocW...)
		}
		pw /= 20
		bips /= 20
		meanPower += pw
		meanBIPS += bips
		fmt.Printf("%5d   %6.1f   %+7.1f%%   %5.2f   %.1f / %.1f / %.1f / %.1f\n",
			e, pw, (pw-budget)/budget*100, bips, alloc[0], alloc[1], alloc[2], alloc[3])
	}
	meanPower /= epochs
	meanBIPS /= epochs

	fmt.Printf("\nMean power %.1f W (budget %.1f W, error %+.1f%%)\n",
		meanPower, budget, (meanPower-budget)/budget*100)
	fmt.Printf("Throughput %.2f BIPS vs %.2f unmanaged (%.1f%% degradation for a 20%% power cut)\n",
		meanBIPS, cal.UnmanagedBIPS, (1-meanBIPS/cal.UnmanagedBIPS)*100)
}
