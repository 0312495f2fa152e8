// Scaling example: the Figure 15 configuration. A 32-core CMP (Mix-3
// replicated twice: 8 four-core islands alternating CPU-bound and
// memory-bound) is managed at an 80% budget. The example also demonstrates
// parallel sampling: the chip's sampler samples islands concurrently with
// bit-identical results to sequential sampling, which is what makes the
// large configurations cheap to evaluate.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	mix := workload.Mix3(2) // 32 cores, 8 islands
	fmt.Printf("CMP: %d cores in %d islands (%s)\n\n", mix.Cores(), len(mix.Islands), mix.Name)

	// Demonstrate sampling equivalence and speedup on the raw simulator.
	const steps = 300
	seqTime, seqPower := timeRun(mix, false, steps)
	parTime, parPower := timeRun(mix, true, steps)
	fmt.Printf("sequential sampling: %8v   mean power %.2f W\n", seqTime.Round(time.Millisecond), seqPower)
	fmt.Printf("parallel sampling:   %8v   mean power %.2f W (identical: %v)\n",
		parTime.Round(time.Millisecond), parPower, seqPower == parPower)
	fmt.Printf("speedup: %.1fx on GOMAXPROCS=%d (islands scale with available cores)\n\n",
		float64(seqTime)/float64(parTime), runtime.GOMAXPROCS(0))

	// Manage the 32-core chip at an 80% budget.
	cfg := sim.DefaultConfig(mix)
	cfg.Parallel = true
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	budget := cal.BudgetW(0.80)
	cmp, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.New(cmp, core.Config{BudgetW: budget, Transducers: cal.Transducers})
	if err != nil {
		log.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewCPMRunner(c), engine.SessionConfig{
		WarmEpochs: 6, MeasureEpochs: 16, BudgetW: budget, Label: "scaling",
	})
	if err != nil {
		log.Fatal(err)
	}
	sum := s.Run()
	fmt.Printf("32-core chip at 80%% budget (%.1f W of %.1f W demand):\n", budget, cal.UnmanagedPowerW)
	fmt.Printf("  mean power %.1f W (%+.1f%% vs budget)\n", sum.MeanPowerW, (sum.MeanPowerW-budget)/budget*100)
	fmt.Printf("  throughput %.2f BIPS vs %.2f unmanaged (%.1f%% degradation)\n",
		sum.MeanBIPS, cal.UnmanagedBIPS, (1-sum.MeanBIPS/cal.UnmanagedBIPS)*100)
}

func timeRun(mix workload.Mix, parallel bool, steps int) (time.Duration, float64) {
	cfg := sim.DefaultConfig(mix)
	cfg.Parallel = parallel
	cmp, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	var power float64
	for k := 0; k < steps; k++ {
		power += cmp.Step().ChipPowerW / float64(steps)
	}
	return time.Since(start), power
}
