package sim

import (
	"reflect"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestSamplerMatchesLiveChipRecords pins the recording contract: the
// records RecordTraces samples are, interval for interval, the records a
// New chip built from the same config consumes — while the chip's DVFS
// trajectory varies, because records are frequency-independent.
func TestSamplerMatchesLiveChipRecords(t *testing.T) {
	const intervals = 40
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 9
	set, err := RecordTraces(cfg, intervals)
	if err != nil {
		t.Fatal(err)
	}
	live := newCMP(t, cfg)
	for k := 0; k < intervals; k++ {
		for i := 0; i < live.NumIslands(); i++ {
			live.SetLevel(i, (k/5+i)%8)
		}
		live.Step()
		for id, rec := range live.sampler.Records(k) {
			if rec != set.Records[id][k] {
				t.Fatalf("interval %d core %d: recorded %+v, live chip sampled %+v",
					k, id, set.Records[id][k], rec)
			}
		}
	}
}

// lockstepCounters reads a sampler's current counters, which a chip
// stepping in lockstep with it reads: the chip's, then each island's.
func lockstepCounters(s *Sampler) []CacheStats {
	out := []CacheStats{s.CacheStats()}
	for i := range s.islands {
		out = append(out, s.IslandCacheStats(i))
	}
	return out
}

// windowCounters reads the sampler's counters before interval n in the
// same layout.
func windowCounters(s *Sampler, n int) []CacheStats {
	return append([]CacheStats(nil), s.counters(n)...)
}

func newSampler(t *testing.T, cfg Config) *Sampler {
	t.Helper()
	s, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// checkWindowContract drives s next to ref, a sampler in the same state
// consumed at its cursor only, for Window+8 intervals from s's cursor.
// After each new interval every retained interval must return the batch
// ref sampled for it and the counters ref had right after it; the next
// interval must sample; anything older than the window, before the
// sampler's first interval or past the next interval must panic.
func checkWindowContract(t *testing.T, s, ref *Sampler) {
	t.Helper()
	first := s.Cursor()
	if got, want := windowCounters(s, first), lockstepCounters(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters before the first interval %d: sampler %+v, lockstep %+v", first, got, want)
	}
	var batches [][]uarch.TraceRecord
	var counters [][]CacheStats
	for k := first; k < first+Window+8; k++ {
		batches = append(batches, append([]uarch.TraceRecord(nil), ref.Records(k)...))
		counters = append(counters, lockstepCounters(ref))
		s.Records(k)
		if s.Cursor() != k+1 {
			t.Fatalf("asking for the next interval %d left the cursor at %d", k, s.Cursor())
		}
		for j := k; j >= first && j > k-Window; j-- {
			if got := s.Records(j); !reflect.DeepEqual(got, batches[j-first]) {
				t.Fatalf("at %d, retained interval %d returned another batch", k, j)
			}
			if got := windowCounters(s, j+1); !reflect.DeepEqual(got, counters[j-first]) {
				t.Fatalf("at %d, counters after interval %d: sampler %+v, lockstep %+v", k, j, got, counters[j-first])
			}
		}
		if s.Cursor() != k+1 {
			t.Fatalf("reading retained intervals moved the cursor to %d at %d", s.Cursor(), k)
		}
		if got, want := lockstepCounters(s), counters[k-first]; !reflect.DeepEqual(got, want) {
			t.Fatalf("at %d, current counters %+v, lockstep %+v", k, got, want)
		}
		mustPanic(t, "an interval past the next one", func() { s.Records(k + 2) })
		mustPanic(t, "an interval before the sampler's first", func() { s.Records(first - 1) })
		mustPanic(t, "counters past the next interval", func() { s.counters(k + 2) })
		if old := k - Window; old >= first {
			mustPanic(t, "an interval older than the window", func() { s.Records(old) })
			mustPanic(t, "counters older than the window", func() { s.counters(old + 1) })
		}
	}
}

// TestSamplerWindowContractFresh runs the contract from a fresh sampler,
// whose counters before the first interval are zeros.
func TestSamplerWindowContractFresh(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 5
	checkWindowContract(t, newSampler(t, cfg), newSampler(t, cfg))
}

// TestSamplerWindowContractRestored runs the contract from a restored
// sampler: the window restarts at its cursor, with its counters as the
// base.
func TestSamplerWindowContractRestored(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 5
	orig := newSampler(t, cfg)
	for k := 0; k < 13; k++ {
		orig.Records(k)
	}
	e := snapshot.NewEncoder()
	orig.Snapshot(e)
	restore := func() *Sampler {
		s := newSampler(t, cfg)
		if err := s.Restore(snapshot.NewDecoder(e.Bytes())); err != nil {
			t.Fatal(err)
		}
		return s
	}
	checkWindowContract(t, restore(), restore())
}

// TestSamplerWindowChipCounters: two chips over one sampler, stepped a
// window at a time each, read after every step the counters a chip
// stepping in lockstep with its sampler reads right after the same step —
// from a fresh sampler and from a warm-started chip over a restored one.
func TestSamplerWindowChipCounters(t *testing.T) {
	const warm = 9
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 5

	// A lockstep reference, warmed to the restore point.
	ref := newSampler(t, cfg)
	warmChip, err := NewWithRecords(cfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]CacheStats // counters after each interval
	for k := 0; k < warm; k++ {
		warmChip.Step()
		want = append(want, lockstepCounters(ref))
	}
	se, ce := snapshot.NewEncoder(), snapshot.NewEncoder()
	ref.Snapshot(se)
	if err := warmChip.Snapshot(ce); err != nil {
		t.Fatal(err)
	}
	end := warm + 2*Window + 5 // the last pass is a partial window
	for k := warm; k < end; k++ {
		ref.Records(k) // the warm chip stops; ref samples on alone
		want = append(want, lockstepCounters(ref))
	}
	chipCounters := func(c *CMP) []CacheStats {
		out := []CacheStats{c.CacheStats()}
		for i := 0; i < c.NumIslands(); i++ {
			out = append(out, c.IslandCacheStats(i))
		}
		return out
	}

	for _, restored := range []bool{false, true} {
		s := newSampler(t, cfg)
		if restored {
			if err := s.Restore(snapshot.NewDecoder(se.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		var chips [2]*CMP
		for i := range chips {
			if chips[i], err = NewWithRecords(cfg, s); err != nil {
				t.Fatal(err)
			}
			if restored {
				if err := chips[i].Restore(snapshot.NewDecoder(ce.Bytes())); err != nil {
					t.Fatal(err)
				}
				if got := chipCounters(chips[i]); !reflect.DeepEqual(got, want[warm-1]) {
					t.Fatalf("restored chip before its first step reads %+v, want the restored sampler's %+v", got, want[warm-1])
				}
			} else if got := chipCounters(chips[i]); !reflect.DeepEqual(got, make([]CacheStats, len(got))) {
				t.Fatalf("fresh chip before its first step reads %+v, want zeros", got)
			}
		}
		for pass := s.Cursor(); pass < end; pass += Window {
			for _, c := range chips {
				for k := pass; k < pass+Window && k < end; k++ {
					c.Step()
					if got := chipCounters(c); !reflect.DeepEqual(got, want[k]) {
						t.Fatalf("restored=%v: chip read %+v after interval %d, lockstep read %+v", restored, got, k, want[k])
					}
				}
			}
		}
	}
}

// TestSamplerSnapshotRoundTrip restores a mid-stream sampler snapshot into
// a fresh sampler and demands the continuation streams be identical.
func TestSamplerSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 3
	a, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 13; k++ {
		a.Records(k)
	}
	e := snapshot.NewEncoder()
	a.Snapshot(e)

	b, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.Cursor() != 13 {
		t.Fatalf("restored cursor = %d, want 13", b.Cursor())
	}
	for k := 13; k < 25; k++ {
		ra, rb := a.Records(k), b.Records(k)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("interval %d core %d: restored sampler diverged", k, i)
			}
		}
	}

	// Shape mismatches must be rejected, not silently misapplied.
	c, err := NewSampler(DefaultConfig(workload.Mix3(2)))
	if err != nil {
		t.Fatal(err)
	}
	e2 := snapshot.NewEncoder()
	a.Snapshot(e2)
	if err := c.Restore(snapshot.NewDecoder(e2.Bytes())); err == nil {
		t.Error("32-core sampler accepted an 8-core snapshot")
	}
}
