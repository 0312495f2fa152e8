package uarch

import (
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/mem"
	"github.com/cpm-sim/cpm/internal/workload"
)

// testCore is one whole core: a sampling Core whose records a ComputeCore
// evaluates against its own memory system.
type testCore struct {
	*Core
	compute *ComputeCore
}

func newTestCore(t *testing.T, s *Core, m *mem.System) testCore {
	t.Helper()
	cc, err := NewComputeCore(s.ID(), s.cfg, s.Profile(), cache.TableIL2PerCore().LatencyCycles, m)
	if err != nil {
		t.Fatal(err)
	}
	return testCore{Core: s, compute: cc}
}

// RunInterval samples one interval and evaluates it at freqMHz.
func (c testCore) RunInterval(freqMHz, intervalSec, overheadFrac float64) IntervalStats {
	rec := c.SampleInterval()
	var st IntervalStats
	c.compute.FinishInterval(&rec, freqMHz, intervalSec, overheadFrac, &st)
	return st
}

func newCore(t *testing.T, id int, seed uint64, bench string) testCore {
	t.Helper()
	l1i, err := cache.New(cache.TableIL1())
	if err != nil {
		t.Fatal(err)
	}
	l1d, err := cache.New(cache.TableIL1())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := cache.New(cache.TableIL2PerCore())
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(l1i, l1d, l2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.New(mem.TableI())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(id, seed, DefaultConfig(), workload.MustByName(bench), h)
	if err != nil {
		t.Fatal(err)
	}
	return newTestCore(t, c, m)
}

// run executes n warm-up intervals then returns the mean stats of the next
// n intervals.
func run(c testCore, freqMHz float64, n int) IntervalStats {
	const dt = 0.0025
	for i := 0; i < n; i++ {
		c.RunInterval(freqMHz, dt, 0)
	}
	var acc IntervalStats
	for i := 0; i < n; i++ {
		s := c.RunInterval(freqMHz, dt, 0)
		acc.Instructions += s.Instructions
		acc.CPI += s.CPI
		acc.BIPS += s.BIPS
		acc.BusyFrac += s.BusyFrac
		acc.Utilization += s.Utilization
	}
	k := float64(n)
	acc.CPI /= k
	acc.BIPS /= k
	acc.BusyFrac /= k
	acc.Utilization /= k
	return acc
}

func TestTableIParamsValid(t *testing.T) {
	if err := TableIParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := TableIParams()
	if p.FetchWidth != 4 || p.IssueWidth != 2 || p.CommitWidth != 2 {
		t.Errorf("Table I widths = %+v, want 4/2/2", p)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.DataSampleRefs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sample density should be rejected")
	}
	bad = DefaultConfig()
	bad.NominalMaxMHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nominal frequency should be rejected")
	}
	bad = DefaultConfig()
	bad.Params.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width should be rejected")
	}
}

func TestNewCoreValidation(t *testing.T) {
	if _, err := NewCore(0, 1, DefaultConfig(), workload.MustByName("bschls"), nil); err == nil {
		t.Error("nil hierarchy should be rejected")
	}
	badProf := workload.MustByName("bschls")
	badProf.BaseCPI = -1
	l1i, _ := cache.New(cache.TableIL1())
	l1d, _ := cache.New(cache.TableIL1())
	l2, _ := cache.New(cache.TableIL2PerCore())
	h, _ := cache.NewHierarchy(l1i, l1d, l2)
	if _, err := NewCore(0, 1, DefaultConfig(), badProf, h); err == nil {
		t.Error("invalid profile should be rejected")
	}
}

// CPU-bound applications must speed up nearly linearly with frequency;
// memory-bound applications must not. This is the fundamental property the
// whole power-management study rests on.
func TestFrequencyScalingByClass(t *testing.T) {
	cases := []struct {
		bench   string
		minGain float64 // required BIPS(2000)/BIPS(600)
		maxGain float64
	}{
		{"bschls", 2.6, 3.6}, // CPU bound: near the 3.33 frequency ratio
		{"x264", 2.6, 3.6},
		{"sclust", 1.0, 2.2}, // memory bound: well below it
		{"canneal", 1.0, 2.0},
	}
	for _, c := range cases {
		slow := run(newCore(t, 0, 42, c.bench), 600, 40)
		fast := run(newCore(t, 0, 42, c.bench), 2000, 40)
		gain := fast.BIPS / slow.BIPS
		if gain < c.minGain || gain > c.maxGain {
			t.Errorf("%s: BIPS gain 600→2000 MHz = %.2f, want in [%.1f, %.1f]",
				c.bench, gain, c.minGain, c.maxGain)
		}
	}
}

func TestMemoryBoundHasHigherCPI(t *testing.T) {
	cpu := run(newCore(t, 0, 7, "bschls"), 2000, 40)
	memb := run(newCore(t, 0, 7, "canneal"), 2000, 40)
	if memb.CPI < 2*cpu.CPI {
		t.Errorf("canneal CPI (%.2f) should dwarf blackscholes CPI (%.2f)", memb.CPI, cpu.CPI)
	}
	if cpu.CPI < 0.5 || cpu.CPI > 3 {
		t.Errorf("blackscholes CPI = %.2f, outside plausible range", cpu.CPI)
	}
	if memb.CPI < 3 || memb.CPI > 40 {
		t.Errorf("canneal CPI = %.2f, outside plausible range", memb.CPI)
	}
}

func TestUtilizationTracksFrequencyForCPUBound(t *testing.T) {
	slow := run(newCore(t, 0, 3, "btrack"), 600, 40)
	fast := run(newCore(t, 0, 3, "btrack"), 2000, 40)
	if fast.Utilization <= slow.Utilization {
		t.Error("CPU-bound utilization should grow with frequency")
	}
	ratio := fast.Utilization / slow.Utilization
	if ratio < 2.0 || ratio > 4.0 {
		t.Errorf("utilization ratio = %.2f, want near the frequency ratio 3.33", ratio)
	}
}

func TestDVFSOverheadReducesWork(t *testing.T) {
	a := newCore(t, 0, 11, "bschls")
	b := newCore(t, 0, 11, "bschls")
	sa := a.RunInterval(2000, 0.0025, 0)
	sb := b.RunInterval(2000, 0.0025, 0.005)
	if sb.Instructions >= sa.Instructions {
		t.Error("transition overhead should reduce instructions executed")
	}
	lost := 1 - sb.Instructions/sa.Instructions
	if math.Abs(lost-0.005) > 1e-9 {
		t.Errorf("lost fraction = %v, want 0.005", lost)
	}
	// Overhead is clamped.
	sc := b.RunInterval(2000, 0.0025, 5)
	if sc.Instructions != 0 {
		t.Error("full-interval overhead should yield zero instructions")
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := newCore(t, 2, 99, "fsim")
	b := newCore(t, 2, 99, "fsim")
	for i := 0; i < 20; i++ {
		sa := a.RunInterval(1400, 0.0025, 0)
		sb := b.RunInterval(1400, 0.0025, 0)
		if sa != sb {
			t.Fatalf("interval %d diverged: %+v vs %+v", i, sa, sb)
		}
	}
	if a.compute.TotalInstructions() != b.compute.TotalInstructions() {
		t.Error("cumulative counts diverged")
	}
}

func TestStatsAreFiniteAndBounded(t *testing.T) {
	for _, bench := range workload.Names() {
		c := newCore(t, 1, 5, bench)
		for i := 0; i < 30; i++ {
			s := c.RunInterval(1000, 0.0025, 0)
			if math.IsNaN(s.CPI) || math.IsInf(s.CPI, 0) || s.CPI <= 0 {
				t.Fatalf("%s: bad CPI %v", bench, s.CPI)
			}
			if s.BusyFrac < 0 || s.BusyFrac > 1 {
				t.Fatalf("%s: BusyFrac %v out of range", bench, s.BusyFrac)
			}
			if s.Utilization < 0 || s.Utilization > 1 {
				t.Fatalf("%s: Utilization %v out of range", bench, s.Utilization)
			}
			if s.Instructions < 0 {
				t.Fatalf("%s: negative instructions", bench)
			}
			au := s.Activity
			for _, v := range []float64{au.Utilization, au.FPFraction, au.MemRefFraction, au.L2AccessFactor} {
				if v < 0 || v > 1 {
					t.Fatalf("%s: activity component %v out of range", bench, v)
				}
			}
		}
	}
}

func TestMemoryBoundGeneratesTraffic(t *testing.T) {
	// Warm both cores past the cold-start sweep of their working sets
	// before measuring steady-state traffic.
	count := func(bench string) uint64 {
		c := newCore(t, 0, 17, bench)
		for i := 0; i < 60; i++ {
			c.RunInterval(2000, 0.0025, 0)
		}
		var blocks uint64
		for i := 0; i < 20; i++ {
			blocks += c.RunInterval(2000, 0.0025, 0).MemBlocks
		}
		return blocks
	}
	memBlocks := count("sclust")
	cpuBlocks := count("bschls")
	if memBlocks == 0 {
		t.Error("memory-bound benchmark produced no memory traffic")
	}
	if cpuBlocks*4 > memBlocks {
		t.Errorf("CPU-bound steady-state traffic (%d) should be far below memory-bound traffic (%d)", cpuBlocks, memBlocks)
	}
}

func TestSharedL2CouplesCores(t *testing.T) {
	// Two memory-bound cores sharing one L2 slice evict each other's data;
	// each should see more memory traffic than when running alone.
	mkShared := func() (a, b testCore) {
		shared, err := cache.NewBanked(cache.TableIL2PerCore(), 2)
		if err != nil {
			t.Fatal(err)
		}
		msys, _ := mem.New(mem.TableI())
		for i := 0; i < 2; i++ {
			l1i, _ := cache.New(cache.TableIL1())
			l1d, _ := cache.New(cache.TableIL1())
			h, _ := cache.NewHierarchy(l1i, l1d, shared)
			c, err := NewCore(i, 55, DefaultConfig(), workload.MustByName("fsim"), h)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				a = newTestCore(t, c, msys)
			} else {
				b = newTestCore(t, c, msys)
			}
		}
		return a, b
	}
	a, b := mkShared()
	var sharedCPI float64
	for i := 0; i < 30; i++ {
		sharedCPI += a.RunInterval(2000, 0.0025, 0).CPI
		b.RunInterval(2000, 0.0025, 0)
	}
	solo := run(newCore(t, 0, 55, "fsim"), 2000, 15)
	if sharedCPI/30 < solo.CPI*0.95 {
		t.Errorf("shared-L2 CPI (%.2f) should not beat solo CPI (%.2f)", sharedCPI/30, solo.CPI)
	}
}
