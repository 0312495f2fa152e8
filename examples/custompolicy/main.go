// Custom-policy example: §II-C notes that the GPM/PIC decoupling makes the
// provisioning policy pluggable ("policies for reducing energy consumption
// by providing a minimum guarantee on the performance ... are also feasible
// using our approach, but are not evaluated"). This example implements one:
// an energy saver that keeps shrinking the effective chip budget as long as
// throughput stays above a floor relative to the unmanaged baseline, and
// backs off when it dips below. Everything below the policy — the PICs, the
// transducers, the simulator — is reused untouched.
package main

import (
	"fmt"
	"log"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// energySaver wraps the performance-aware policy with an outer loop on the
// effective budget: spend less whenever performance allows.
type energySaver struct {
	inner gpm.PerformanceAware
	// floorBIPS is the minimum acceptable chip throughput.
	floorBIPS float64
	// shrink is the effective budget as a fraction of the offered one.
	shrink float64
}

func (p *energySaver) Name() string { return "energy-saver" }

func (p *energySaver) Provision(budgetW float64, obs []gpm.IslandObs) []float64 {
	total := 0.0
	for _, o := range obs {
		total += o.BIPS
	}
	if p.shrink == 0 {
		p.shrink = 1
	}
	if total > p.floorBIPS*1.02 {
		p.shrink *= 0.97 // performance headroom: save more energy
	} else if total < p.floorBIPS {
		p.shrink /= 0.94 // floor breached: give power back quickly
	}
	if p.shrink > 1 {
		p.shrink = 1
	}
	if p.shrink < 0.4 {
		p.shrink = 0.4
	}
	return p.inner.Provision(budgetW*p.shrink, obs)
}

func main() {
	cfg := sim.DefaultConfig(workload.Mix1())
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}

	// Guarantee at least 90% of unmanaged throughput; spend as little
	// power as that allows.
	policy := &energySaver{floorBIPS: 0.90 * cal.UnmanagedBIPS}
	cmp, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.New(cmp, core.Config{
		BudgetW:     cal.BudgetW(1.0), // offer the full demand; the policy shrinks it
		Policy:      policy,
		Transducers: cal.Transducers,
	})
	if err != nil {
		log.Fatal(err)
	}

	c.Run(6 * 20)
	fmt.Printf("Unmanaged: %.1f W at %.2f BIPS; floor: %.2f BIPS (90%%)\n\n", cal.UnmanagedPowerW, cal.UnmanagedBIPS, policy.floorBIPS)
	fmt.Println("epoch   chip W   BIPS    vs floor   effective budget")
	var meanP, meanB float64
	const epochs = 24
	for e := 0; e < epochs; e++ {
		var pw, bips float64
		for k := 0; k < 20; k++ {
			r := c.Step()
			pw += r.Sim.ChipPowerW / 20
			bips += r.Sim.TotalBIPS / 20
		}
		meanP += pw / epochs
		meanB += bips / epochs
		fmt.Printf("%5d   %6.1f   %5.2f   %+6.1f%%   %5.1f%% of demand\n",
			e, pw, bips, (bips/policy.floorBIPS-1)*100, policy.shrink*100)
	}
	fmt.Printf("\nSteady state: %.1f W (%.0f%% of unmanaged) at %.2f BIPS (%.0f%% of unmanaged)\n",
		meanP, meanP/cal.UnmanagedPowerW*100, meanB, meanB/cal.UnmanagedBIPS*100)
	fmt.Println("Energy saved without violating the performance guarantee — a policy the paper")
	fmt.Println("sketches but does not evaluate, running on the same two-tier machinery.")
}
