package sim

import (
	"reflect"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

// lockstepCounters reads a sampler's counters the way a chip sharing it
// in lockstep does: the chip's, then each island's.
func lockstepCounters(s *Sampler) []CacheStats {
	out := []CacheStats{s.CacheStats()}
	for i := range s.islands {
		out = append(out, s.IslandCacheStats(i))
	}
	return out
}

// logCounters reads the log's counters before interval n in the same
// layout.
func logCounters(l *RecordLog, n int) []CacheStats {
	out := []CacheStats{l.CacheStats(n)}
	for i := range l.s.islands {
		out = append(out, l.IslandCacheStats(n, i))
	}
	return out
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

// checkLogContract drives a window-4 log over s next to ref, a sampler in
// the same state consumed in lockstep, for n intervals from s's cursor.
// After each new interval every retained interval must return the batch
// ref sampled for it and the counters ref had right after it; the next
// interval must sample; anything older than the window or past the next
// interval must panic.
func checkLogContract(t *testing.T, s, ref *Sampler, n int) {
	t.Helper()
	const window = 4
	first := s.Cursor()
	l := NewRecordLog(s, window)
	if got, want := logCounters(l, first), lockstepCounters(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters before the first interval %d: log %+v, lockstep %+v", first, got, want)
	}
	var batches [][]uarch.TraceRecord
	var counters [][]CacheStats
	for k := first; k < first+n; k++ {
		batches = append(batches, append([]uarch.TraceRecord(nil), ref.Records(k)...))
		counters = append(counters, lockstepCounters(ref))
		l.Records(k)
		if s.Cursor() != k+1 {
			t.Fatalf("asking for the next interval %d left the cursor at %d", k, s.Cursor())
		}
		for j := k; j >= first && j > k-window; j-- {
			if got := l.Records(j); !reflect.DeepEqual(got, batches[j-first]) {
				t.Fatalf("at %d, retained interval %d returned another batch", k, j)
			}
			if got := logCounters(l, j+1); !reflect.DeepEqual(got, counters[j-first]) {
				t.Fatalf("at %d, counters after interval %d: log %+v, lockstep %+v", k, j, got, counters[j-first])
			}
		}
		if s.Cursor() != k+1 {
			t.Fatalf("reading retained intervals moved the cursor to %d at %d", s.Cursor(), k)
		}
		mustPanic(t, "an interval past the next one", func() { l.Records(k + 2) })
		mustPanic(t, "an interval before the log's first", func() { l.Records(first - 1) })
		mustPanic(t, "counters past the next interval", func() { l.CacheStats(k + 2) })
		if old := k - window; old >= first {
			mustPanic(t, "an interval older than the window", func() { l.Records(old) })
			mustPanic(t, "counters older than the window", func() { l.IslandCacheStats(old+1, 0) })
		}
	}
}

// TestRecordLogContractFresh runs the contract from a fresh sampler, whose
// counters before the first interval are zeros.
func TestRecordLogContractFresh(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 5
	checkLogContract(t, newSampler(t, cfg), newSampler(t, cfg), 11)
}

// TestRecordLogContractRestored runs the contract from a restored sampler:
// the log starts at its cursor, with its counters as the base.
func TestRecordLogContractRestored(t *testing.T) {
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
	checkLogContract(t, restore(), restore(), 11)
}

// TestRecordLogChipCounters: two chips over one log, stepped a window at a
// time each, read after every step the counters a chip sharing the bare
// sampler reads right after the same step — from a fresh sampler and from
// a warm-started chip over a restored one.
func TestRecordLogChipCounters(t *testing.T) {
	const window, warm = 4, 9
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
	for k := warm; k < warm+3*window; k++ {
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
		l := NewRecordLog(s, window)
		var chips [2]*CMP
		for i := range chips {
			if chips[i], err = NewWithRecords(cfg, l); err != nil {
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
		end := warm + 3*window
		for pass := s.Cursor(); pass < end; pass += window {
			for _, c := range chips {
				for k := pass; k < pass+window && k < end; k++ {
					c.Step()
					if got := chipCounters(c); !reflect.DeepEqual(got, want[k]) {
						t.Fatalf("restored=%v: chip read %+v after interval %d, lockstep read %+v", restored, got, k, want[k])
					}
				}
			}
		}
	}
}
