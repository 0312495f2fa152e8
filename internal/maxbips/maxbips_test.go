package maxbips

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/stats"
)

func newPlanner(t *testing.T, static [][]float64) *Planner {
	t.Helper()
	p, err := New(static)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func staticTable4(levels int) [][]float64 {
	// Four identical islands whose per-level prediction ramps 6..20 W.
	out := make([][]float64, 4)
	for i := range out {
		out[i] = make([]float64, levels)
		for l := 0; l < levels; l++ {
			out[i][l] = 6 + 2*float64(l)
		}
	}
	return out
}

// raggedTable is a two-island chip whose islands run tables of 8 and 5
// levels: level l costs 10+l W on the long row and 2+l W on the short one.
func raggedTable() [][]float64 {
	return [][]float64{
		{10, 11, 12, 13, 14, 15, 16, 17},
		{2, 3, 4, 5, 6},
	}
}

// predicted sums the static prediction of a chosen combination.
func predicted(static [][]float64, levels []int) float64 {
	total := 0.0
	for i, l := range levels {
		total += static[i][l]
	}
	return total
}

func TestNewValidation(t *testing.T) {
	for _, empty := range [][][]float64{nil, {}} {
		if _, err := New(empty); err == nil {
			t.Errorf("empty table %v should be rejected", empty)
		}
	}
}

// New installs the static table: a row with no levels is rejected and
// names its island, and a well-formed table, ragged rows included, yields
// a planner that picks one level per row.
func TestSetStaticTableValidation(t *testing.T) {
	for _, tc := range []struct {
		table  [][]float64
		island string
	}{
		{[][]float64{{}}, "island 0"},
		{[][]float64{{1, 2}, {3, 4}, {}}, "island 2"},
	} {
		p, err := New(tc.table)
		if err == nil || !strings.Contains(err.Error(), tc.island) {
			t.Errorf("table %v: err = %v, want one naming %s", tc.table, err, tc.island)
		}
		if p != nil {
			t.Errorf("table %v: a rejected table still gave a planner", tc.table)
		}
	}
	for _, table := range [][][]float64{staticTable4(8), raggedTable()} {
		p := newPlanner(t, table)
		if got := p.Choose(1000, make([]IslandObs, len(table))); len(got) != len(table) {
			t.Errorf("table with %d rows: %d levels chosen", len(table), len(got))
		}
	}
}

func TestStaticChoosesHighestFeasibleUniformLevel(t *testing.T) {
	p := newPlanner(t, staticTable4(8))
	obs := make([]IslandObs, 4)
	// Level l costs 4*(6+2l): level 5 costs 64, level 6 costs 72.
	levels := p.Choose(70, obs)
	for i, l := range levels {
		if l != 5 {
			t.Errorf("island %d level = %d, want uniform 5 under a 70 W budget", i, l)
		}
	}
	// Generous budget: top level.
	for _, l := range p.Choose(1000, obs) {
		if l != 7 {
			t.Error("generous budget should pick the top level")
		}
	}
	// Infeasible: bottom level.
	for _, l := range p.Choose(1, obs) {
		if l != 0 {
			t.Error("infeasible budget should pick the bottom level")
		}
	}
}

// The static mode is workload-blind: wildly different observations change
// nothing.
func TestStaticModeIgnoresObservations(t *testing.T) {
	p := newPlanner(t, staticTable4(8))
	a := p.Choose(70, []IslandObs{{BIPS: 100, PowerW: 1}, {}, {}, {}})
	b := p.Choose(70, []IslandObs{{BIPS: 0.01, PowerW: 99}, {}, {}, {}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("static planner must not react to observations")
		}
	}
}

// On a chip whose islands run tables of different lengths, a uniform level
// clamps each island to its own row: the short row stays at its top while
// the long row keeps climbing.
func TestStaticRaggedRows(t *testing.T) {
	p := newPlanner(t, raggedTable())
	obs := make([]IslandObs, 2)
	for _, tc := range []struct {
		budget float64
		want   [2]int
	}{
		{23, [2]int{7, 4}},   // level 7 costs 17 + 6
		{22.9, [2]int{6, 4}}, // level 6 costs 16 + 6
		{21, [2]int{5, 4}},   // level 5 costs 15 + 6
		{20, [2]int{4, 4}},   // level 4 costs 14 + 6: both rows climb below it
		{19.9, [2]int{3, 3}}, // level 3 costs 13 + 5
		{12, [2]int{0, 0}},   // level 0 costs 10 + 2
	} {
		got := p.Choose(tc.budget, obs)
		if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("budget %v: levels %v, want %v", tc.budget, got, tc.want)
		}
	}
}

// A budget that even the all-lowest combination busts gives the lowest
// level on every island, the scheme's failure mode.
func TestChooseInfeasibleBudget(t *testing.T) {
	p := newPlanner(t, raggedTable())
	for _, budget := range []float64{11.9, 1, 0, -5, math.NaN()} {
		got := p.Choose(budget, make([]IslandObs, 2))
		if len(got) != 2 || got[0] != 0 || got[1] != 0 {
			t.Errorf("budget %v: levels %v, want the lowest level on both islands", budget, got)
		}
	}
}

// Under a budget every combination fits, each island runs its own top
// level, however short its row.
func TestChooseMaximizesAtGenerousBudget(t *testing.T) {
	p := newPlanner(t, raggedTable())
	for _, budget := range []float64{1000, math.Inf(1)} {
		got := p.Choose(budget, make([]IslandObs, 2))
		if len(got) != 2 || got[0] != 7 || got[1] != 4 {
			t.Errorf("budget %v: levels %v, want each island's top level [7 4]", budget, got)
		}
	}
}

// On random ragged tables with rising rows, the chosen combination's
// predicted power fits any budget the all-lowest combination fits, and one
// uniform level higher (where any island can still climb) busts it.
func TestChooseRespectsBudget(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		static := make([][]float64, 1+r.Intn(6))
		maxLevels := 0
		for i := range static {
			static[i] = make([]float64, 1+r.Intn(8))
			w := r.Range(0.5, 3)
			for l := range static[i] {
				w += r.Range(0.1, 2)
				static[i][l] = w
			}
			maxLevels = max(maxLevels, len(static[i]))
		}
		p, err := New(static)
		if err != nil {
			return false
		}
		lowest := predicted(static, make([]int, len(static)))
		budget := r.Range(0.5*lowest, 25*float64(len(static)))
		got := p.Choose(budget, make([]IslandObs, len(static)))
		uniform := 0
		for _, l := range got {
			uniform = max(uniform, l)
		}
		for i, l := range got {
			if l != clamp(uniform, static[i]) {
				return false
			}
		}
		if lowest > budget {
			return uniform == 0
		}
		if predicted(static, got) > budget {
			return false
		}
		if uniform+1 < maxLevels {
			up := make([]int, len(static))
			for i := range up {
				up[i] = clamp(uniform+1, static[i])
			}
			return predicted(static, up) > budget
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The under-consumption behaviour of Figure 11: with discrete knobs the
// chosen combination's predicted power sits strictly below a budget that
// falls between two uniform levels.
func TestUnderConsumesBetweenKnobs(t *testing.T) {
	static := staticTable4(8)
	p := newPlanner(t, static)
	const budget = 70.0 // between level 5 (64 W) and level 6 (72 W)
	pw := predicted(static, p.Choose(budget, make([]IslandObs, 4)))
	if pw >= budget {
		t.Errorf("predicted power %v not below budget %v", pw, budget)
	}
	if budget-pw < 1 {
		t.Errorf("expected a visible under-consumption gap, got %v", budget-pw)
	}
}

func TestChooseRejectsIslandCountMismatch(t *testing.T) {
	p := newPlanner(t, staticTable4(8))
	for _, n := range []int{0, 3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d observations for 4 islands did not panic", n)
				}
			}()
			p.Choose(70, make([]IslandObs, n))
		}()
	}
}
