// Replay example: record a workload trace once, then evaluate two GPM
// policies on *identical* workload behaviour. Interval traces are
// frequency-independent (they capture what the applications did, not what
// the controller chose), so a recorded run can be replayed under any DVFS
// trajectory — removing workload variance from controller comparisons and
// skipping the cache simulation entirely.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	base := sim.DefaultConfig(workload.Mix3(1))

	// Calibrate, and record the workload over the experiment horizon so the
	// replay never wraps.
	cal, err := core.Calibrate(base, 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	const horizon = 26 * 20
	set, err := sim.RecordTraces(base, horizon)
	if err != nil {
		log.Fatal(err)
	}

	// Traces serialize; a fleet of comparisons can share one file.
	var buf bytes.Buffer
	if err := uarch.SaveTraces(&buf, set); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Recorded %d intervals x %d cores (%.1f KiB serialized)\n\n",
		horizon, len(set.Records), float64(buf.Len())/1024)
	loaded, err := uarch.LoadTraces(&buf)
	if err != nil {
		log.Fatal(err)
	}

	budget := cal.BudgetW(0.8)
	run := func(policy gpm.Policy) (power, bips float64) {
		chip, err := sim.NewReplay(base, loaded)
		if err != nil {
			log.Fatal(err)
		}
		ctl, err := core.New(chip, core.Config{
			BudgetW: budget, Policy: policy, Transducers: cal.Transducers,
		})
		if err != nil {
			log.Fatal(err)
		}
		ctl.Run(6 * 20)
		const n = 20 * 20
		for k := 0; k < n; k++ {
			r := ctl.Step()
			power += r.Sim.ChipPowerW / n
			bips += r.Sim.TotalBIPS / n
		}
		return
	}

	fmt.Printf("Both policies replay the exact same 16-core Mix-3 workload at a %.1f W budget\n", budget)
	fmt.Printf("(islands alternate all-CPU-bound and all-memory-bound, so reallocation matters):\n\n")
	fmt.Println("policy             mean power   throughput")
	p1, b1 := run(&gpm.PerformanceAware{})
	fmt.Printf("performance-aware  %7.1f W   %6.2f BIPS\n", p1, b1)
	p2, b2 := run(gpm.EqualShare{})
	fmt.Printf("equal-share        %7.1f W   %6.2f BIPS\n", p2, b2)
	fmt.Printf("\nperformance-aware delivers %+.1f%% throughput on identical workload behaviour\n",
		(b1/b2-1)*100)
}
