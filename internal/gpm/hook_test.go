package gpm

import "testing"

func TestProvisionHookSeesClippedAllocation(t *testing.T) {
	m, err := NewManager(EqualShare{}, 80)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	m.AddProvisionHook(func(budgetW float64, obs []IslandObs, alloc []float64) {
		calls++
		if budgetW != 80 {
			t.Errorf("hook budget = %v, want 80", budgetW)
		}
		if len(obs) != 4 || len(alloc) != 4 {
			t.Fatalf("hook slices %d/%d, want 4/4", len(obs), len(alloc))
		}
		if s := sum(alloc); s > 80+1e-9 {
			t.Errorf("hook saw unclipped allocation summing to %v", s)
		}
	})
	alloc := m.Provision(obs4())
	if calls != 1 {
		t.Fatalf("hook fired %d times, want 1", calls)
	}
	if len(alloc) != 4 {
		t.Fatalf("allocation length %d", len(alloc))
	}
}

// TestProvisionHookFanOut pins the fan-out: every added hook fires once per
// provision, and a nil hook is ignored.
func TestProvisionHookFanOut(t *testing.T) {
	m, err := NewManager(EqualShare{}, 80)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	m.AddProvisionHook(func(float64, []IslandObs, []float64) { a++ })
	m.AddProvisionHook(func(float64, []IslandObs, []float64) { b++ })
	m.AddProvisionHook(nil) // ignored
	m.Provision(obs4())
	m.Provision(obs4())
	if a != 2 || b != 2 {
		t.Fatalf("added hooks fired %d/%d times over 2 provisions, want 2/2", a, b)
	}
}
