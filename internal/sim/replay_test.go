package sim

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

// recordTraces records n intervals of Mix-1.
func recordTraces(t *testing.T, n int) uarch.TraceSet {
	t.Helper()
	set, err := RecordTraces(DefaultConfig(workload.Mix1()), n)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func newReplay(t *testing.T, cfg Config, set uarch.TraceSet) *CMP {
	t.Helper()
	c, err := NewReplay(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stepPowers steps c for n intervals, setting every island to levelAt(k)
// first when levelAt is non-nil, and returns the chip power series.
func stepPowers(c *CMP, n int, levelAt func(k int) int) []float64 {
	var powers []float64
	for k := 0; k < n; k++ {
		if levelAt != nil {
			for i := 0; i < c.NumIslands(); i++ {
				c.SetLevel(i, levelAt(k))
			}
		}
		powers = append(powers, c.Step().ChipPowerW)
	}
	return powers
}

// Replaying a trace under the same DVFS trajectory must reproduce the live
// run's observable behaviour exactly (power, throughput).
func TestReplayReproducesLiveRun(t *testing.T) {
	levels := func(k int) int { return (k / 7) % 8 }
	livePowers := stepPowers(newCMP(t, DefaultConfig(workload.Mix1())), 60, levels)
	got := stepPowers(newReplay(t, DefaultConfig(workload.Mix1()), recordTraces(t, 60)), 60, levels)
	for k := range got {
		if got[k] != livePowers[k] {
			t.Fatalf("interval %d: replay power %v, live %v", k, got[k], livePowers[k])
		}
	}
}

// The point of frequency-independent records: the same trace replayed at a
// different operating point behaves like the workload would have — here,
// pinned low, it must consume less power than a live run at level 7.
func TestReplayUnderDifferentTrajectory(t *testing.T) {
	livePowers := stepPowers(newCMP(t, DefaultConfig(workload.Mix1())), 40, func(int) int { return 7 })
	r := newReplay(t, DefaultConfig(workload.Mix1()), recordTraces(t, 40))
	var replayLow float64
	for _, p := range stepPowers(r, 40, func(int) int { return 0 }) {
		replayLow += p
	}
	var liveHigh float64
	for _, p := range livePowers {
		liveHigh += p
	}
	if replayLow >= liveHigh {
		t.Errorf("replay at the bottom level (%v) should consume less than the level-7 live run (%v)", replayLow, liveHigh)
	}
}

func TestReplayWrapsAround(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	// Decouple the memory-contention feedback (latency depends on previous
	// traffic, which never becomes exactly periodic); with an effectively
	// unlimited channel, replay behaviour is strictly periodic.
	cfg.Mem.BandwidthGBs = 1e9
	r := newReplay(t, cfg, recordTraces(t, 10))
	// Run three times the trace length; throughput must repeat with period
	// 10 (same records, same levels, same memory-contention pattern).
	// Power is deliberately NOT compared: die temperature is integrative
	// state that keeps warming across periods, so leakage differs.
	var first, third []float64
	for k := 0; k < 30; k++ {
		p := r.Step().TotalBIPS
		if k < 10 {
			first = append(first, p)
		}
		if k >= 20 {
			third = append(third, p)
		}
	}
	for i := 0; i < 10; i++ {
		// Tolerance: the residual ~1e-10 channel utilization still perturbs
		// latency at the tenth decimal.
		if math.Abs(first[i]-third[i]) > 1e-6 {
			t.Fatalf("interval %d: wrap-around diverged: %v vs %v", i, first[i], third[i])
		}
	}
}

func TestReplayValidation(t *testing.T) {
	// Mismatched mix: Mix-2 assigns different benchmarks to the cores.
	if _, err := NewReplay(DefaultConfig(workload.Mix2()), recordTraces(t, 5)); err == nil {
		t.Error("replaying a Mix-1 trace on Mix-2 should be rejected")
	}
	// Missing core.
	set := recordTraces(t, 5)
	delete(set.Records, 3)
	delete(set.Benchmarks, 3)
	if _, err := NewReplay(DefaultConfig(workload.Mix1()), set); err == nil {
		t.Error("incomplete trace set should be rejected")
	}
	// Empty per-core trace.
	set = recordTraces(t, 5)
	set.Records[2] = nil
	if _, err := NewReplay(DefaultConfig(workload.Mix1()), set); err == nil {
		t.Error("empty per-core trace should be rejected")
	}
}

// Recording needs at least one interval: an empty recording would save a
// file no replay can load.
func TestTracesRequiresRecording(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := RecordTraces(DefaultConfig(workload.Mix1()), n); err == nil {
			t.Errorf("RecordTraces(%d) should error", n)
		}
	}
}

func TestTraceSetSaveLoadRoundTrip(t *testing.T) {
	set := recordTraces(t, 8)
	var buf bytes.Buffer
	if err := uarch.SaveTraces(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := uarch.LoadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(set.Records) {
		t.Fatalf("round trip lost cores: %d vs %d", len(got.Records), len(set.Records))
	}
	for id, recs := range set.Records {
		if len(got.Records[id]) != len(recs) {
			t.Fatalf("core %d trace length changed", id)
		}
		if got.Records[id][3] != recs[3] {
			t.Fatalf("core %d record mutated in transit", id)
		}
		if got.Benchmarks[id] != set.Benchmarks[id] {
			t.Fatalf("core %d benchmark name lost", id)
		}
	}
	// Writer and reader agree on corrupt sets: an empty per-core trace is
	// refused on save, and rejected on load when it arrives anyway.
	bad := uarch.TraceSet{
		Benchmarks: map[int]string{0: "bschls"},
		Records:    map[int][]uarch.TraceRecord{0: {}},
	}
	var b2 bytes.Buffer
	if err := uarch.SaveTraces(&b2, bad); err == nil {
		t.Error("empty per-core trace should be rejected on save")
	}
	if err := gob.NewEncoder(&b2).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := uarch.LoadTraces(&b2); err == nil {
		t.Error("empty per-core trace should be rejected on load")
	}
	if err := uarch.SaveTraces(&b2, uarch.TraceSet{}); err == nil {
		t.Error("empty set should be rejected on save")
	}
}

// A replay chip is isolated from the sampling half: it runs on the trace
// alone — here twice around a 6-interval recording — and, simulating no
// caches, reports zero cache statistics.
func TestReplayCoreIsolated(t *testing.T) {
	r := newReplay(t, DefaultConfig(workload.Mix1()), recordTraces(t, 6))
	sum := 0.0
	for k := 0; k < 12; k++ {
		sum += r.Step().TotalBIPS
	}
	if sum <= 0 {
		t.Fatal("replay produced no throughput")
	}
	if s := r.CacheStats(); s != (CacheStats{}) {
		t.Errorf("replay chip reports cache stats %+v, want zeros", s)
	}
	if s := r.IslandCacheStats(0); s != (CacheStats{}) {
		t.Errorf("replay chip reports island cache stats %+v, want zeros", s)
	}
}
