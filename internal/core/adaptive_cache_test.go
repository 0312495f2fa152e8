package core

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestCacheSignalsReachPolicy runs a cache-aware CPM and checks that the GPM
// observations carry per-island cache deltas: positive L2 activity on a live
// chip, deltas (not cumulative counters) across epochs, and nothing at all
// for a policy that never asked.
func TestCacheSignalsReachPolicy(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cmp, Config{
		BudgetW:     cal.BudgetW(0.7),
		Transducers: cal.Transducers,
		Policy:      &gpm.CacheAware{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var epochs [][]gpm.IslandObs
	for _, r := range c.Run(90) { // 4 GPM invocations (first boundary skipped: no measurements)
		if r.GPMInvoked {
			epochs = append(epochs, r.GPMObs)
		}
	}
	if len(epochs) < 3 {
		t.Fatalf("expected ≥ 3 GPM epochs, saw %d", len(epochs))
	}
	for e, obs := range epochs {
		for _, o := range obs {
			if o.L1DAccesses <= 0 {
				t.Fatalf("epoch %d island %d: no L1D activity (%v) on a live chip", e, o.Island, o.L1DAccesses)
			}
			if o.L2Misses > o.L2Accesses {
				t.Fatalf("epoch %d island %d: L2 misses %v exceed accesses %v", e, o.Island, o.L2Misses, o.L2Accesses)
			}
		}
	}
	// Deltas, not cumulative counters: successive epochs must be the same
	// order of magnitude, not monotonically growing sums.
	first, last := epochs[0][0].L1DAccesses, epochs[len(epochs)-1][0].L1DAccesses
	if last > first*float64(len(epochs))*2 {
		t.Errorf("L1D accesses grew %v → %v across %d epochs: cumulative counters leaked through", first, last, len(epochs))
	}

	// A policy that never asked pays nothing and sees zeros.
	cmp2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(cmp2, Config{BudgetW: cal.BudgetW(0.7), Transducers: cal.Transducers})
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, r := range c2.Run(45) {
		if !r.GPMInvoked {
			continue
		}
		seen = true
		for _, o := range r.GPMObs {
			if o.L2Accesses != 0 || o.L1DAccesses != 0 {
				t.Fatalf("performance-aware CPM observed cache deltas: %+v", o)
			}
		}
	}
	if !seen {
		t.Fatal("no GPM epoch in 45 intervals")
	}
}

// TestAdaptiveCPMWiring checks Config.Adaptive reaches every PIC and that
// the estimator actually runs under closed-loop excitation.
func TestAdaptiveCPMWiring(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cmp, Config{
		BudgetW:     cal.BudgetW(0.8),
		Transducers: cal.Transducers,
		Adaptive:    &pic.AdaptiveConfig{SeedGain: cal.PlantGain},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cmp.NumIslands(); i++ {
		if !c.PIC(i).Adaptive() {
			t.Fatalf("island %d PIC not adaptive", i)
		}
	}
	c.Run(200)
	for i := 0; i < cmp.NumIslands(); i++ {
		est, scale := c.PIC(i).PlantGainEstimate(), c.PIC(i).GainScale()
		if math.IsNaN(est) || est <= 0 {
			t.Errorf("island %d plant-gain estimate %v", i, est)
		}
		if math.IsNaN(scale) || scale <= 0 {
			t.Errorf("island %d gain scale %v", i, scale)
		}
	}
}

// TestSnapshotRoundTripCacheAdaptive snapshots a cache-aware + adaptive CPM
// mid-run and checks the restored instance replays bit-identically — the
// latches and estimator state are part of the Version 2 snapshot.
func TestSnapshotRoundTripCacheAdaptive(t *testing.T) {
	cfg, cal := calibrated(t, workload.Mix1())
	build := func() *CPM {
		cmp, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cmp, Config{
			BudgetW:     cal.BudgetW(0.7),
			Transducers: cal.Transducers,
			Policy:      &gpm.CacheAware{},
			Adaptive:    &pic.AdaptiveConfig{SeedGain: cal.PlantGain},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src := build()
	src.Run(70) // past two GPM boundaries so the cache latch is non-zero

	e := snapshot.NewEncoder()
	if err := src.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := dst.Restore(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 60; k++ {
		a, b := src.Step(), dst.Step()
		if a.Sim.ChipPowerW != b.Sim.ChipPowerW || a.Sim.TotalBIPS != b.Sim.TotalBIPS {
			t.Fatalf("step %d diverged: power %v vs %v, BIPS %v vs %v",
				k, a.Sim.ChipPowerW, b.Sim.ChipPowerW, a.Sim.TotalBIPS, b.Sim.TotalBIPS)
		}
		for i := range a.AllocW {
			if a.AllocW[i] != b.AllocW[i] {
				t.Fatalf("step %d island %d alloc diverged: %v vs %v", k, i, a.AllocW[i], b.AllocW[i])
			}
		}
	}

	// Presence mismatch must be rejected, not silently misparsed.
	plain, err := New(mustSim(t, cfg), Config{BudgetW: cal.BudgetW(0.7), Transducers: cal.Transducers, Policy: &gpm.CacheAware{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Error("restoring an adaptive snapshot into a fixed-gain CPM should fail")
	}
}

func mustSim(t *testing.T, cfg sim.Config) *sim.CMP {
	t.Helper()
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cmp
}
