package check

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/power"
)

// TestAllOoOClassesMatchHomogeneousGolden is a metamorphic relation: a
// "heterogeneous" chip whose islands are all the big out-of-order class is
// physically the homogeneous chip, so it must reproduce the homogeneous
// scenario's golden trace bit for bit — through calibration, the PICs, the
// GPM policy and the MaxBIPS planner's per-island table.
func TestAllOoOClassesMatchHomogeneousGolden(t *testing.T) {
	names := map[string]bool{"cpm-default": true, "maxbips": true, "cache-aware": true, "adaptive-pic": true}
	ran := 0
	for _, sc := range Canonical() {
		if !names[sc.Name] {
			continue
		}
		ran++
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Classes != nil {
				t.Fatalf("scenario %s already assigns island classes", sc.Name)
			}
			sc.Classes = make([]power.CoreClass, len(sc.Mix().Islands))
			for i := range sc.Classes {
				sc.Classes[i] = power.ClassOoO
			}
			g := NewGolden(sc.Name)
			_, suite, err := sc.Run(goldenSeed, g)
			if err != nil {
				t.Fatal(err)
			}
			if err := suite.Err(); err != nil {
				t.Errorf("all-OoO %s violated invariants:\n%v", sc.Name, err)
			}
			ref, err := LoadTrace(goldenPath(sc.Name))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Trace().Diff(ref); err != nil {
				t.Errorf("all-OoO classes diverged from the homogeneous golden: %v", err)
			}
		})
	}
	if ran != len(names) {
		t.Fatalf("ran %d of the %d named scenarios", ran, len(names))
	}
}
