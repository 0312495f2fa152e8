package sim

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/workload"
)

func TestStepHookReceivesEveryResult(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	// Results are retained across steps, so the hook clones them out of the
	// chip's scratch buffers.
	c.AddStepHook(func(r Result) { got = append(got, r.Clone()) })
	const n = 10
	want := make([]Result, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, c.Step().Clone())
	}
	if len(got) != n {
		t.Fatalf("hook fired %d times over %d steps", len(got), n)
	}
	for k := range want {
		if got[k].ChipPowerW != want[k].ChipPowerW || got[k].TotalBIPS != want[k].TotalBIPS {
			t.Fatalf("step %d: hook saw %+v, Step returned %+v", k, got[k], want[k])
		}
	}
}

// TestStepHookFanOut pins the fan-out: every added hook fires once per
// step, and a nil hook is ignored.
func TestStepHookFanOut(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	c.AddStepHook(func(Result) { a++ })
	c.AddStepHook(func(Result) { b++ })
	c.AddStepHook(nil) // ignored
	c.Step()
	c.Step()
	if a != 2 || b != 2 {
		t.Fatalf("added hooks fired %d/%d times over 2 steps, want 2/2", a, b)
	}
}
