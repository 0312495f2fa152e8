package check

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden traces in testdata/golden")

const goldenSeed = 1

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenScenarios replays every canonical scenario under the full
// invariant suite and compares its hashed trace against the stored golden.
// Run with -update to regenerate after an intentional behaviour change.
func TestGoldenScenarios(t *testing.T) {
	for _, sc := range Canonical() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			g := NewGolden(sc.Name)
			sum, suite, err := sc.Run(goldenSeed, g)
			if err != nil {
				t.Fatalf("scenario %s: %v", sc.Name, err)
			}
			if err := suite.Err(); err != nil {
				t.Errorf("scenario %s violated invariants:\n%v", sc.Name, err)
			}
			if sum.MeanPowerW <= 0 || sum.MeanBIPS <= 0 {
				t.Fatalf("scenario %s produced a degenerate summary: %+v", sc.Name, sum)
			}
			tr := g.Trace()
			if tr.Epochs != sc.MeasureEpochs {
				t.Fatalf("scenario %s recorded %d epochs, want %d", sc.Name, tr.Epochs, sc.MeasureEpochs)
			}
			path := goldenPath(sc.Name)
			if *update {
				if err := tr.WriteFile(path); err != nil {
					t.Fatalf("writing %s: %v", path, err)
				}
				t.Logf("wrote %s", path)
				return
			}
			ref, err := LoadTrace(path)
			if os.IsNotExist(err) {
				t.Fatalf("no golden trace at %s; run `go test ./internal/check -update` to create it", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Diff(ref); err != nil {
				t.Errorf("%v\n(if this change is intentional, regenerate with `go test ./internal/check -update`)", err)
			}
		})
	}
}

// TestGoldenDetectsControllerPerturbation is the harness's self-test: a
// one-line change to the PID gains must shift the golden digests, or the
// harness could not catch a controller regression.
func TestGoldenDetectsControllerPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("perturbation replay skipped in -short mode")
	}
	sc := Canonical()[0] // cpm-default
	sc.GainScale = 1.15
	g := NewGolden(sc.Name)
	if _, _, err := sc.Run(goldenSeed, g); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadTrace(goldenPath(sc.Name))
	if err != nil {
		t.Skipf("golden trace missing (%v); run -update first", err)
	}
	if err := g.Trace().Diff(ref); err == nil {
		t.Fatal("perturbed PID gains (×1.15) produced a trace identical to the golden — the harness cannot detect controller regressions")
	} else {
		t.Logf("perturbation detected as expected: %v", err)
	}
}

// TestGoldenDeterminism re-runs one scenario and demands bit-identical
// traces: a flaky digest would make the whole harness useless.
func TestGoldenDeterminism(t *testing.T) {
	sc := Canonical()[0]
	g1 := NewGolden(sc.Name)
	if _, _, err := sc.Run(goldenSeed, g1); err != nil {
		t.Fatal(err)
	}
	g2 := NewGolden(sc.Name)
	if _, _, err := sc.Run(goldenSeed, g2); err != nil {
		t.Fatal(err)
	}
	if err := g1.Trace().Diff(g2.Trace()); err != nil {
		t.Fatalf("two identical runs diverged: %v", err)
	}
}

// TestRound6HalfAwayFromZero pins the trailer-field rounding rule at quantum
// boundaries: ties round away from zero in both directions, and values just
// under a quantum are not truncated. IEEE semantics make these expressions
// platform-deterministic.
func TestRound6HalfAwayFromZero(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{12345.5 / 1e6, 12346.0 / 1e6},   // positive tie: away from zero
		{-12345.5 / 1e6, -12346.0 / 1e6}, // negative tie: away from zero
		{12344.5 / 1e6, 12345.0 / 1e6},   // tie with even neighbour below: still up
		{0.9999995, 1.0},                 // cast truncation would give 0.999999
		{-0.9999995, -1.0},
		{1.2000004, 1.2},
		{0, 0},
	}
	for _, c := range cases {
		if got := round6(c.in); got != c.want {
			t.Errorf("round6(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
