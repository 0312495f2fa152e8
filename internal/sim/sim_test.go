package sim

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

func newCMP(t *testing.T, cfg Config) *CMP {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig(workload.Mix1())
	bad.IntervalSec = 0
	if _, err := New(bad); err == nil {
		t.Error("zero interval should be rejected")
	}
	bad = DefaultConfig(workload.Mix1())
	bad.InitialLevel = 99
	if _, err := New(bad); err == nil {
		t.Error("out-of-range initial level should be rejected")
	}
	bad = DefaultConfig(workload.Mix{Name: "x", Islands: [][]string{{"nope"}}})
	if _, err := New(bad); err == nil {
		t.Error("invalid mix should be rejected")
	}
}

func TestTopology(t *testing.T) {
	c := newCMP(t, DefaultConfig(workload.Mix1()))
	if c.NumIslands() != 4 || c.NumCores() != 8 {
		t.Fatalf("topology = %d islands / %d cores", c.NumIslands(), c.NumCores())
	}
	for i := 0; i < 4; i++ {
		if c.IslandCores(i) != 2 {
			t.Errorf("island %d has %d cores", i, c.IslandCores(i))
		}
		if math.Abs(c.IslandMaxPowerW(i)-2*c.IslandModel(0).CoreMaxPower()) > 1e-9 {
			t.Errorf("island %d max power wrong", i)
		}
	}
	if math.Abs(c.MaxChipPowerW()-8*c.IslandModel(0).CoreMaxPower()) > 1e-9 {
		t.Error("chip max power wrong")
	}
	bm := c.IslandBenchmarks(0)
	if len(bm) != 2 || bm[0] != "bschls" || bm[1] != "sclust" {
		t.Errorf("island 0 benchmarks = %v", bm)
	}
	// Default initial level is the top.
	if c.Level(0) != c.IslandTable(0).Levels()-1 {
		t.Error("default initial level should be top")
	}
}

func TestStepBasicInvariants(t *testing.T) {
	c := newCMP(t, DefaultConfig(workload.Mix1()))
	for k := 0; k < 30; k++ {
		r := c.Step()
		if r.Interval != k {
			t.Fatalf("interval numbering broken: %d != %d", r.Interval, k)
		}
		var sum float64
		for _, ir := range r.Islands {
			if ir.PowerW <= 0 {
				t.Fatalf("island %d non-positive power", ir.Island)
			}
			// Fractions are relative to the nominal maximum (leakage at the
			// 45C reference); hot cores can exceed 1 slightly.
			if ir.PowerFracIsland < 0 || ir.PowerFracIsland > 1.3 {
				t.Fatalf("island %d power fraction %v out of range", ir.Island, ir.PowerFracIsland)
			}
			if ir.MeanUtil < 0 || ir.MeanUtil > 1 {
				t.Fatalf("island %d utilization %v out of range", ir.Island, ir.MeanUtil)
			}
			sum += ir.PowerW
		}
		if math.Abs(sum-r.ChipPowerW) > 1e-9 {
			t.Fatal("island powers do not sum to chip power")
		}
		if r.ChipPowerFrac < 0 || r.ChipPowerFrac > 1.3 {
			t.Fatalf("chip power fraction %v out of range", r.ChipPowerFrac)
		}
		if r.TotalBIPS <= 0 {
			t.Fatal("no throughput")
		}
		if r.MaxTempC < 40 || r.MaxTempC > 140 {
			t.Fatalf("implausible temperature %v", r.MaxTempC)
		}
	}
	if c.TotalInstructions() <= 0 {
		t.Error("no cumulative instructions")
	}
}

func TestLowerLevelLowersPowerAndThroughput(t *testing.T) {
	run := func(level int) (pw, bips float64) {
		cfg := DefaultConfig(workload.Mix1())
		cfg.InitialLevel = level
		c := newCMP(t, cfg)
		for k := 0; k < 40; k++ {
			r := c.Step()
			if k >= 20 {
				pw += r.ChipPowerW
				bips += r.TotalBIPS
			}
		}
		return pw / 20, bips / 20
	}
	pHi, bHi := run(7)
	pLo, bLo := run(0)
	if pLo >= pHi {
		t.Errorf("power at min level (%v) should be below max level (%v)", pLo, pHi)
	}
	if bLo >= bHi {
		t.Errorf("throughput at min level (%v) should be below max level (%v)", bLo, bHi)
	}
	// Power dynamic range must be wide enough for meaningful control: the
	// plant gain over the normalized frequency axis is roughly this swing.
	swing := (pHi - pLo) / c8MaxPower(t)
	if swing < 0.4 || swing > 0.95 {
		t.Errorf("chip power swing = %.2f of max, want a wide controllable range", swing)
	}
}

func c8MaxPower(t *testing.T) float64 {
	c := newCMP(t, DefaultConfig(workload.Mix1()))
	return c.MaxChipPowerW()
}

func TestSetLevelTransitionOverhead(t *testing.T) {
	c := newCMP(t, DefaultConfig(workload.Mix1()))
	c.Step()
	if !c.SetLevel(0, 3) {
		t.Fatal("level change not acknowledged")
	}
	r := c.Step()
	if !r.Islands[0].Transitioned {
		t.Error("transition overhead not charged")
	}
	if r.Islands[0].Level != 3 || r.Islands[0].FreqMHz != c.IslandTable(0).Point(3).FreqMHz {
		t.Error("island result does not reflect new level")
	}
	r = c.Step()
	if r.Islands[0].Transitioned {
		t.Error("overhead charged twice")
	}
	if c.Transitions(0) != 1 {
		t.Errorf("transitions = %d", c.Transitions(0))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *CMP { return newCMP(t, DefaultConfig(workload.Mix2())) }
	a, b := mk(), mk()
	for k := 0; k < 40; k++ {
		ra, rb := a.Step(), b.Step()
		if ra.ChipPowerW != rb.ChipPowerW {
			t.Fatalf("interval %d: nondeterministic power", k)
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	a := newCMP(t, cfg)
	cfg.Seed = 2
	b := newCMP(t, cfg)
	same := 0
	for k := 0; k < 20; k++ {
		if a.Step().ChipPowerW == b.Step().ChipPowerW {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds gave identical trajectories")
	}
}

func TestVariationRaisesLeakyIslandPower(t *testing.T) {
	base := DefaultConfig(workload.Mix2()) // homogeneous islands
	base.Variation = variation.PaperIslands(2)
	c := newCMP(t, base)
	if math.Abs(c.IslandLeakMult(2)-2.0) > 1e-12 || math.Abs(c.IslandLeakMult(3)-1.0) > 1e-12 {
		t.Fatalf("leak multipliers wrong: %v %v", c.IslandLeakMult(2), c.IslandLeakMult(3))
	}
	// Same-benchmark islands: compare a leaky vs nominal island running the
	// same applications. Mix-2 islands 1 (sclust,fsim) and 3 (canneal,vips)
	// differ in apps, so instead compare island 2 against a uniform-map run.
	uni := DefaultConfig(workload.Mix2())
	u := newCMP(t, uni)
	var leaky, nominal float64
	for k := 0; k < 30; k++ {
		leaky += c.Step().Islands[2].PowerW
		nominal += u.Step().Islands[2].PowerW
	}
	if leaky <= nominal {
		t.Errorf("2x leakage island power (%v) should exceed nominal (%v)", leaky, nominal)
	}
}

func TestSixteenAndThirtyTwoCoreConfigs(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		c := newCMP(t, DefaultConfig(workload.Mix3(replicas)))
		want := 16 * replicas
		if c.NumCores() != want {
			t.Fatalf("cores = %d, want %d", c.NumCores(), want)
		}
		r := c.Step()
		if len(r.Islands) != 4*replicas {
			t.Fatalf("islands = %d", len(r.Islands))
		}
		if r.ChipPowerW <= 0 {
			t.Fatal("no power")
		}
	}
}

func TestSharedL2Config(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.SharedL2 = true
	c := newCMP(t, cfg)
	r := c.Step()
	if r.ChipPowerW <= 0 {
		t.Fatal("shared-L2 config does not run")
	}
}

// Shared island L2 slices let a streaming co-runner pollute a CPU-bound
// application's working set; its throughput must be no better than with a
// private slice.
func TestSharedL2PollutionHurtsCPUBound(t *testing.T) {
	run := func(shared bool) float64 {
		cfg := DefaultConfig(workload.Mix1())
		cfg.SharedL2 = shared
		c := newCMP(t, cfg)
		var bips float64
		for k := 0; k < 80; k++ {
			r := c.Step()
			if k >= 40 {
				bips += r.Islands[0].BIPS
			}
		}
		return bips
	}
	if sharedBips, privBips := run(true), run(false); sharedBips > privBips*1.02 {
		t.Errorf("shared L2 island throughput (%v) should not beat private slices (%v)", sharedBips, privBips)
	}
}

func TestMemoryBoundIslandLessSensitiveToDVFS(t *testing.T) {
	// Mix-2 island 0 is CPU-bound (bschls+btrack), island 1 memory-bound
	// (sclust+fsim). Dropping frequency must hurt island 0's BIPS much more.
	measure := func(level int) (cpu, memb float64) {
		cfg := DefaultConfig(workload.Mix2())
		cfg.InitialLevel = level
		c := newCMP(t, cfg)
		for k := 0; k < 60; k++ {
			r := c.Step()
			if k >= 30 {
				cpu += r.Islands[0].BIPS
				memb += r.Islands[1].BIPS
			}
		}
		return
	}
	cpuHi, memHi := measure(7)
	cpuLo, memLo := measure(0)
	cpuLoss := 1 - cpuLo/cpuHi
	memLoss := 1 - memLo/memHi
	if cpuLoss < memLoss+0.15 {
		t.Errorf("CPU-bound island DVFS loss (%.2f) should far exceed memory-bound loss (%.2f)", cpuLoss, memLoss)
	}
}

func TestNoCAddsMemoryLatency(t *testing.T) {
	run := func(withNoC bool) float64 {
		cfg := DefaultConfig(workload.Mix1())
		if withNoC {
			n := noc.DefaultConfig(2, 4)
			cfg.NoC = &n
		}
		c := newCMP(t, cfg)
		var bips float64
		for k := 0; k < 60; k++ {
			r := c.Step()
			if k >= 30 {
				bips += r.TotalBIPS
			}
		}
		return bips
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("NoC round trips should cost throughput: %v with vs %v without", with, without)
	}
	if with < without*0.9 {
		t.Errorf("a few-ns mesh should be a small tax, got %.1f%%", (1-with/without)*100)
	}
}

func TestNoCValidatedAgainstCoreCount(t *testing.T) {
	cfg := DefaultConfig(workload.Mix3(2)) // 32 cores
	n := noc.DefaultConfig(2, 4)           // only 8 tiles
	cfg.NoC = &n
	if _, err := New(cfg); err == nil {
		t.Error("undersized mesh should be rejected")
	}
}

// TestNoCParallelStillDeterministic: two chips with the mesh enabled step
// identically, the congestion feedback included.
func TestNoCParallelStillDeterministic(t *testing.T) {
	mk := func() *CMP {
		cfg := DefaultConfig(workload.Mix1())
		n := noc.DefaultConfig(2, 4)
		cfg.NoC = &n
		return newCMP(t, cfg)
	}
	a, b := mk(), mk()
	for k := 0; k < 40; k++ {
		ra, rb := a.Step(), b.Step()
		if ra.ChipPowerW != rb.ChipPowerW {
			t.Fatalf("interval %d diverged with NoC enabled", k)
		}
	}
}

func TestL2PrefetchingHelpsStreamingWorkloads(t *testing.T) {
	run := func(degree int) float64 {
		cfg := DefaultConfig(workload.Mix2()) // island 1 = sclust+fsim (streaming)
		cfg.L2PrefetchDegree = degree
		c := newCMP(t, cfg)
		var bips float64
		for k := 0; k < 80; k++ {
			r := c.Step()
			if k >= 40 {
				bips += r.Islands[1].BIPS
			}
		}
		return bips
	}
	off := run(0)
	on := run(4)
	if on <= off {
		t.Errorf("stream prefetching should help memory-bound islands: %v vs %v", on, off)
	}
}

func TestL2PrefetchIncompatibleWithSharedL2(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.SharedL2 = true
	cfg.L2PrefetchDegree = 4
	if _, err := New(cfg); err == nil {
		t.Error("prefetch + shared L2 should be rejected")
	}
}
