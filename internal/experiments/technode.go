package experiments

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "technode",
		Title: "Optimal big/little budget split across technology nodes",
		Paper: "Extension: Lumos-scaled 45-8nm big.LITTLE chips; how the budget share the big islands should get shifts as leakage grows and vth eats the bottom of the table",
		Run:   runTechNode,
	})
}

// splitPolicy provisions a fixed fraction of the chip budget to the
// out-of-order islands (split equally among them) and the remainder to the
// little islands — the open-loop knob the technode study sweeps.
type splitPolicy struct {
	bigFrac float64
	classes []power.CoreClass
}

func (p splitPolicy) Name() string { return "fixed-split" }

func (p splitPolicy) Provision(budgetW float64, obs []gpm.IslandObs) []float64 {
	out := make([]float64, len(obs))
	nBig, nLittle := 0, 0
	for i := range obs {
		if p.classes[i] == power.ClassOoO {
			nBig++
		} else {
			nLittle++
		}
	}
	for i := range obs {
		if p.classes[i] == power.ClassOoO {
			out[i] = budgetW * p.bigFrac / float64(nBig)
		} else {
			out[i] = budgetW * (1 - p.bigFrac) / float64(nLittle)
		}
	}
	return out
}

// runTechNode sweeps the big-island budget share on a big.LITTLE Mix-1
// chip at every technology node and reports the BIPS-optimal split. The
// PICs run in the oracle-power ablation (measured island power as
// feedback), so each node needs no per-node transducer calibration and the
// comparison isolates the physics — scaled tables, vth-trimmed level
// counts, leakage share — from estimator quality. Every run is a farm
// member: the unmanaged baselines run first, one per node, since their
// mean power sets each node's budget; then every node's splits share that
// node's sampler.
func runTechNode(o Options) (Result, error) {
	classes := []power.CoreClass{
		power.ClassOoO, power.ClassLittleIO, power.ClassOoO, power.ClassLittleIO,
	}
	nodes := append([]power.TechNode{0}, power.Nodes()...)
	splits := []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85}
	window := engine.SessionConfig{WarmEpochs: 2, MeasureEpochs: o.epochs(8)}

	labels := make([]string, len(nodes))
	baseSpecs := make([]farm.ChipSpec, len(nodes))
	for n, node := range nodes {
		cfg := sim.DefaultConfig(workload.Mix1())
		cfg.Seed = o.seed()
		cfg.IslandClasses = classes
		labels[n] = "90nm-base"
		if node != 0 {
			cfg.Tech = power.TechConfig{Node: node, Variant: power.ITRS}
			labels[n] = cfg.Tech.String()
		}
		baseSpecs[n] = farm.ChipSpec{Config: cfg, NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
			return engine.NewSession(engine.NewChipRunner(cmp), window)
		}}
	}
	bases, err := runFarm(baseSpecs)
	if err != nil {
		return Result{}, fmt.Errorf("technode unmanaged: %w", err)
	}

	budgets := make([]float64, len(nodes))
	var splitSpecs []farm.ChipSpec
	for n, base := range baseSpecs {
		budgets[n] = 0.8 * bases[n].MeanPowerW
		for _, s := range splits {
			ctlCfg := core.Config{
				BudgetW:        budgets[n],
				Policy:         splitPolicy{bigFrac: s, classes: classes},
				UseOraclePower: true,
			}
			splitSpecs = append(splitSpecs, farm.ChipSpec{Config: base.Config, NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				ctl, err := core.New(cmp, ctlCfg)
				if err != nil {
					return nil, fmt.Errorf("technode %s split %.2f: %w", labels[n], s, err)
				}
				return engine.NewSession(engine.NewCPMRunner(ctl), window)
			}})
		}
	}
	splitRuns, err := runFarm(splitSpecs)
	if err != nil {
		return Result{}, err
	}

	var b strings.Builder
	rows := [][]string{}
	metrics := map[string]float64{}
	set := trace.NewSet("big-island budget share")
	for n, label := range labels {
		bestSplit, bestBIPS, equalBIPS := 0.0, -1.0, 0.0
		for i, s := range splits {
			bips := splitRuns[n*len(splits)+i].MeanBIPS
			set.Get(label).Append(bips)
			if bips > bestBIPS {
				bestSplit, bestBIPS = s, bips
			}
			if s == 0.50 {
				equalBIPS = bips
			}
		}
		gain := 0.0
		if equalBIPS > 0 {
			gain = 100 * (bestBIPS/equalBIPS - 1)
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.1f W", budgets[n]),
			fmt.Sprintf("%.2f", bestSplit),
			fmt.Sprintf("%.2f", bestBIPS),
			fmt.Sprintf("%+.1f%%", gain),
		})
		metrics["opt_big_share_"+label] = bestSplit
		metrics["bips_"+label] = bestBIPS
		metrics["budget_w_"+label] = budgets[n]
	}
	b.WriteString("Big-island budget share maximizing chip BIPS, 0.8 budget, Mix-1 big.LITTLE (2 OoO + 2 little islands), ITRS scaling:\n")
	b.WriteString(trace.Table([]string{"Node", "Budget", "Best big share", "BIPS", "vs 50/50"}, rows))
	b.WriteString("\nShares sweep 0.50-0.85; the little islands absorb the remainder.\n")
	return Result{
		ID:      "technode",
		Title:   "Optimal big/little budget split across technology nodes",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"technode": set},
		Metrics: metrics,
	}, nil
}

// runFarm runs chip specs as one farm batch on one worker: specs sharing a
// workload key share one sampler.
func runFarm(specs []farm.ChipSpec) ([]engine.Summary, error) {
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		return nil, err
	}
	return f.Run(engine.Pool{Workers: 1}, nil)
}
