// Scaling example: the Figure 15 configuration. A 32-core CMP (Mix-3
// replicated twice: 8 four-core islands alternating CPU-bound and
// memory-bound) is managed at 70%, 80% and 90% budgets against the
// unmanaged chip. The four runs share one workload, so they run as one
// batch over one shared sampler (check.RunBatch): trace records do not
// depend on the operating point, so the batch pays the sampling cost of a
// single run, which is what makes the large configurations cheap to sweep.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	mix := workload.Mix3(2) // 32 cores, 8 islands
	fmt.Printf("CMP: %d cores in %d islands (%s)\n\n", mix.Cores(), len(mix.Islands), mix.Name)

	const seed = 1
	base := check.Scenario{
		Name: "unmanaged", Mix: func() workload.Mix { return mix }, Unmanaged: true,
		WarmEpochs: 6, MeasureEpochs: 16,
	}
	fracs := []float64{0.70, 0.80, 0.90}
	scs := []check.Scenario{base}
	for _, frac := range fracs {
		sc := base
		sc.Name, sc.Unmanaged, sc.BudgetFrac = fmt.Sprintf("cpm-%.0f%%", frac*100), false, frac
		scs = append(scs, sc)
	}
	cal, err := scs[1].Calibration(seed)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	sums, _, err := check.RunBatch(scs, seed, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d runs over one shared sampler in %v\n\n", len(scs), time.Since(start).Round(time.Millisecond))

	fmt.Printf("unmanaged: %.1f W, %.2f BIPS\n", sums[0].MeanPowerW, sums[0].MeanBIPS)
	for i, frac := range fracs {
		sum, budget := sums[1+i], cal.BudgetW(frac)
		fmt.Printf("%.0f%% budget (%.1f W): mean power %.1f W (%+.1f%% vs budget), %.2f BIPS (%.1f%% degradation)\n",
			frac*100, budget, sum.MeanPowerW, (sum.MeanPowerW-budget)/budget*100,
			sum.MeanBIPS, engine.Degradation(sum, sums[0])*100)
	}
}
