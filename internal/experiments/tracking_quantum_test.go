package experiments

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestQuantumWSinglePointTable is the regression for the divide-by-zero in
// the tracking resolution estimate: a single-point DVFS table is legal
// (power.NewDVFSTable accepts it), and the old Levels()-1 divisor turned
// its quantum into +Inf, poisoning every downstream tolerance.
func TestQuantumWSinglePointTable(t *testing.T) {
	base := power.DefaultModel()
	tbl, err := power.NewDVFSTable([]power.OperatingPoint{base.Table.Max()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(workload.Mix{Name: "tiny", Islands: [][]string{{"bschls"}}})
	cfg.Power = &power.Model{Table: tbl, Dynamic: base.Dynamic, Leakage: base.Leakage}
	qs, err := quantaW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if math.IsInf(q, 0) || math.IsNaN(q) || q <= 0 {
		t.Fatalf("single-point table quantum = %v, want finite positive", q)
	}

	// The multi-level path is unchanged: swing spread over levels-1 steps.
	mcfg := sim.DefaultConfig(workload.Mix{Name: "tiny", Islands: [][]string{{"bschls"}}})
	mqs, err := quantaW(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mq := mqs[0]
	c, err := sim.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 * c.IslandMaxPowerW(0) / float64(c.IslandTable(0).Levels()-1)
	if math.Abs(mq-want) > 1e-12 {
		t.Fatalf("multi-level quantum %v, want %v", mq, want)
	}
}
