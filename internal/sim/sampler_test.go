package sim

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
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
		for id, rec := range live.sampler.recs {
			if rec != set.Records[id][k] {
				t.Fatalf("interval %d core %d: recorded %+v, live chip sampled %+v",
					k, id, set.Records[id][k], rec)
			}
		}
	}
}

// TestSamplerLockstepContract pins Records' three-way behaviour: cursor
// advances, cursor-1 replays the cached batch, anything else panics.
func TestSamplerLockstepContract(t *testing.T) {
	s, err := NewSampler(DefaultConfig(workload.Mix1()))
	if err != nil {
		t.Fatal(err)
	}
	r0 := s.Records(0)
	if s.Cursor() != 1 {
		t.Fatalf("cursor = %d after first batch, want 1", s.Cursor())
	}
	if again := s.Records(0); &again[0] != &r0[0] {
		t.Error("replaying the current interval did not return the cached batch")
	}
	s.Records(1)
	for _, bad := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Records(%d) at cursor 2 did not panic", bad)
				}
			}()
			s.Records(bad)
		}()
	}
	s.Records(2)
	if s.Cursor() != 3 {
		t.Fatalf("cursor = %d after the third batch, want 3", s.Cursor())
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
