package check

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestCalibrationKeyIncludesLayout builds two specs whose mixes share a
// name but not an island layout (Mix-3 at 16 and 32 cores). Each must get
// its own calibration: a cache keyed by the mix name alone hands the
// 32-core chip the 16-core chip's four transducers.
func TestCalibrationKeyIncludesLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("16- and 32-core calibrations in -short mode")
	}
	for _, replicas := range []int{1, 2} {
		replicas := replicas
		sc := Scenario{
			Name:       "mix3",
			Mix:        func() workload.Mix { return workload.Mix3(replicas) },
			BudgetFrac: 0.8, MeasureEpochs: 1,
		}
		sess, _, err := sc.Build(3)
		if err != nil {
			t.Fatalf("Mix3(%d): %v", replicas, err)
		}
		if got, want := sess.Info().Islands, len(workload.Mix3(replicas).Islands); got != want {
			t.Errorf("Mix3(%d) built %d islands, want %d", replicas, got, want)
		}
	}
}

// TestScenarioWindows pins the run windows: the canonical scenarios keep
// their 2 warm + 4 measured epochs, and a spec's windows are taken as
// written — zero warm epochs run no warm intervals.
func TestScenarioWindows(t *testing.T) {
	for _, sc := range Canonical() {
		if warm, meas := sc.Defaults(); warm != 2 || meas != 4 {
			t.Errorf("%s windows = %d+%d epochs, want 2+4", sc.Name, warm, meas)
		}
	}
	sc := Canonical()[0]
	sc.WarmEpochs, sc.MeasureEpochs = 0, 1
	warmSteps := 0
	sess, _, err := sc.Build(goldenSeed, engine.Funcs{OnStep: func(st engine.Step) {
		if !st.Measured {
			warmSteps++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if info := sess.Info(); info.WarmIntervals != 0 || info.MeasureIntervals != 20 {
		t.Errorf("cold spec runs %d warm + %d measured intervals, want 0 + 20", info.WarmIntervals, info.MeasureIntervals)
	}
	sess.Run()
	if warmSteps != 0 {
		t.Errorf("cold spec stepped %d warm intervals", warmSteps)
	}
}
