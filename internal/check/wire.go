package check

import (
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
)

// ForChip derives a Config from a live simulator instance: DVFS table,
// per-island and chip maxima, thermal envelope parameters. budgetW of 0
// configures an unmanaged run (no budget check).
func ForChip(cmp *sim.CMP, budgetW float64) Config {
	n := cmp.NumIslands()
	islandMax := make([]float64, n)
	for i := 0; i < n; i++ {
		islandMax[i] = cmp.IslandMaxPowerW(i)
	}
	cfg := Config{
		BudgetW:       budgetW,
		IslandMaxW:    islandMax,
		MaxChipPowerW: cmp.MaxChipPowerW(),
		Thermal:       cmp.Thermals().Config(),
	}
	if cmp.Heterogeneous() {
		// Per-island legality tables; the thermal envelope bounds the
		// hottest core class.
		tables := make([]*power.DVFSTable, n)
		for i := 0; i < n; i++ {
			tables[i] = cmp.IslandTable(i)
			if w := cmp.IslandModel(i).CoreMaxPower(); w > cfg.MaxCorePowerW {
				cfg.MaxCorePowerW = w
			}
		}
		cfg.Tables = tables
	} else {
		cfg.Table = cmp.Table()
		cfg.MaxCorePowerW = cmp.Model().CoreMaxPower()
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
