// Package maxbips implements the MaxBIPS global power-management baseline
// (Isci et al., MICRO 2006) in the form the paper compares against: "given
// a power budget, the scheme selects DVFS co-ordinates from a static
// prediction table" (§IV). Every management interval the planner picks the
// highest uniform DVFS level whose predicted chip power, summed from the
// table, stays under the budget.
//
// Two properties of MaxBIPS drive the paper's comparison results:
//
//   - it is open loop — the prediction table is trusted, there is no error
//     feedback — and it must pick a combination *below* the set-point, so
//     with only 8 discrete knobs per island it systematically under-consumes
//     the budget (Figure 11), and
//   - a static table knows nothing about what each island is running, so
//     CPU-bound islands are throttled exactly as hard as memory-bound ones,
//     which costs more performance as islands grow (Figures 13 and 15).
package maxbips

import (
	"errors"
	"fmt"
)

// IslandObs is one island's observation over the last management interval.
// The static-table planner reads only how many observations Choose gets,
// one per island; the fields are what a MaxBIPS implementation measures.
type IslandObs struct {
	// Level is the island's current DVFS level.
	Level int
	// PowerW is the measured island power at that level.
	PowerW float64
	// BIPS is the measured throughput at that level.
	BIPS float64
}

// Planner chooses DVFS levels from a static per-island, per-level power
// prediction table (watts).
type Planner struct {
	static [][]float64
}

// New builds a planner over a static prediction table: one row per island,
// in island order, one predicted power per DVFS level of that island's own
// table. Rows may differ in length on a chip whose islands run different
// tables.
func New(static [][]float64) (*Planner, error) {
	if len(static) == 0 {
		return nil, errors.New("maxbips: empty static table")
	}
	for i, row := range static {
		if len(row) == 0 {
			return nil, fmt.Errorf("maxbips: island %d has no levels in the static table", i)
		}
	}
	return &Planner{static: static}, nil
}

// Choose returns the per-island DVFS levels for budgetW: the highest
// uniform level whose predicted chip power stays under the budget, all
// lowest when none does. A static table knows nothing about what each
// island is currently running, so performance is modelled as proportional
// to frequency with equal weight per core — making all feasible
// combinations of equal total frequency equivalent. On a heterogeneous chip
// "uniform" means the same level index with each island clamped to its own
// row: shorter rows saturate at their top while longer ones keep climbing.
// obs must hold one observation per table row; only its length is read.
func (p *Planner) Choose(budgetW float64, obs []IslandObs) []int {
	if len(obs) != len(p.static) {
		panic(fmt.Sprintf("maxbips: %d observations for a planner over %d islands", len(obs), len(p.static)))
	}
	maxLevels := 0
	for _, row := range p.static {
		if l := len(row); l > maxLevels {
			maxLevels = l
		}
	}
	best := 0
	for lvl := maxLevels - 1; lvl >= 0; lvl-- {
		total := 0.0
		for _, row := range p.static {
			total += row[clamp(lvl, row)]
		}
		if total <= budgetW {
			best = lvl
			break
		}
	}
	out := make([]int, len(p.static))
	for i, row := range p.static {
		out[i] = clamp(best, row)
	}
	return out
}

// clamp limits level lvl to row's top level.
func clamp(lvl int, row []float64) int {
	if lvl >= len(row) {
		return len(row) - 1
	}
	return lvl
}
