package check

import (
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
)

// ForChip derives a Config from a live simulator instance: per-island DVFS
// tables and maxima, the chip maximum and the thermal envelope parameters,
// which bound the hottest core class. budgetW of 0 configures an unmanaged
// run (no budget check).
func ForChip(cmp *sim.CMP, budgetW float64) Config {
	n := cmp.NumIslands()
	cfg := Config{
		Tables:        make([]*power.DVFSTable, n),
		BudgetW:       budgetW,
		IslandMaxW:    make([]float64, n),
		MaxChipPowerW: cmp.MaxChipPowerW(),
		Thermal:       cmp.Thermals().Config(),
	}
	for i := 0; i < n; i++ {
		cfg.Tables[i] = cmp.IslandTable(i)
		cfg.IslandMaxW[i] = cmp.IslandMaxPowerW(i)
		if w := cmp.IslandModel(i).CoreMaxPower(); w > cfg.MaxCorePowerW {
			cfg.MaxCorePowerW = w
		}
	}
	return cfg
}

// ForCPMWithConfig wires the full standard suite for a managed run:
// everything All gives for cfg (normally ForChip's, possibly adjusted —
// e.g. fault-injection runs disable the budget check, since breaking the
// provisioning contract is exactly what the injected fault does), plus
// PIDBounds over the controller's live PICs.
func ForCPMWithConfig(ctl *core.CPM, cfg Config) *Suite {
	s := All(cfg)
	pics := make([]*pic.Controller, ctl.Chip().NumIslands())
	for i := range pics {
		pics[i] = ctl.PIC(i)
	}
	s.Add(NewPIDBounds(pics...))
	return s
}
