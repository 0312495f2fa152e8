package pic

import "testing"

// TestInvokeHookFiresOnBothPaths checks the hook fires on the deadband hold
// path as well as the normal PID path, carrying the level Invoke returned.
func TestInvokeHookFiresOnBothPaths(t *testing.T) {
	plant := defaultPlant()
	c := newController(t, plant, false)
	c.SetTargetWatts(0.55 * plant.maxW)

	var calls int
	var lastLevel int
	var lastTarget, lastEst float64
	c.AddInvokeHook(func(targetFrac, estFrac float64, level int) {
		calls++
		lastTarget, lastEst, lastLevel = targetFrac, estFrac, level
	})

	const steps = 40
	for k := 0; k < steps; k++ {
		util, powW := plant.observe()
		lvl := c.Invoke(util, powW)
		if lvl != lastLevel {
			t.Fatalf("step %d: hook saw level %d, Invoke returned %d", k, lastLevel, lvl)
		}
		if lastTarget != c.TargetFrac() {
			t.Fatalf("step %d: hook saw target %v, want %v", k, lastTarget, c.TargetFrac())
		}
		if lastEst < 0 || lastEst > 1.5 {
			t.Fatalf("step %d: implausible estimate fraction %v", k, lastEst)
		}
		plant.apply(lvl)
	}
	if calls != steps {
		t.Fatalf("hook fired %d times over %d invocations", calls, steps)
	}

	// Converged controllers sit in the deadband hold path; the hook must
	// keep firing there too, so verify a few more settled invocations.
	settled := calls
	for k := 0; k < 5; k++ {
		util, powW := plant.observe()
		plant.apply(c.Invoke(util, powW))
	}
	if calls != settled+5 {
		t.Fatalf("hook fired %d times while settled, want %d", calls-settled, 5)
	}
}

// TestInvokeHookFanOut pins the fan-out: every added hook fires once per
// invocation, and a nil hook is ignored.
func TestInvokeHookFanOut(t *testing.T) {
	plant := defaultPlant()
	c := newController(t, plant, false)
	step := func() {
		util, powW := plant.observe()
		plant.apply(c.Invoke(util, powW))
	}
	var a, b int
	c.AddInvokeHook(func(float64, float64, int) { a++ })
	c.AddInvokeHook(func(float64, float64, int) { b++ })
	c.AddInvokeHook(nil) // ignored
	step()
	step()
	if a != 2 || b != 2 {
		t.Fatalf("added hooks fired %d/%d times over 2 invocations, want 2/2", a, b)
	}
}
