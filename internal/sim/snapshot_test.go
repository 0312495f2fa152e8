package sim

import (
	"errors"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestSnapshotRejectsSamplerPresenceMismatch pins sampler ownership in the
// chip snapshot: a New chip carries its sampler, a NewWithRecords chip
// leaves its source to the owner, and restoring either into the other is a
// shape error in both directions.
func TestSnapshotRejectsSamplerPresenceMismatch(t *testing.T) {
	cfg := DefaultConfig(tinyMix())
	fed := func() *CMP {
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewWithRecords(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	own, shared := newCMP(t, cfg), fed()
	for k := 0; k < 3; k++ {
		own.Step()
		shared.Step()
	}
	ownRaw, sharedRaw := snapshotChip(t, own), snapshotChip(t, shared)

	for name, tc := range map[string]struct {
		raw []byte
		dst *CMP
	}{
		"owned sampler into record-driven chip": {ownRaw, fed()},
		"record-driven chip into New chip":      {sharedRaw, newCMP(t, cfg)},
	} {
		if err := tc.dst.Restore(snapshot.NewDecoder(tc.raw)); !errors.Is(err, snapshot.ErrShape) {
			t.Errorf("%s: want shape error, got %v", name, err)
		}
	}
	if err := newCMP(t, cfg).Restore(snapshot.NewDecoder(ownRaw)); err != nil {
		t.Errorf("New chip snapshot into New chip: %v", err)
	}
	if err := fed().Restore(snapshot.NewDecoder(sharedRaw)); err != nil {
		t.Errorf("record-driven snapshot into record-driven chip: %v", err)
	}
}

// TestSnapshotResumesBitIdentically restores a mid-run snapshot of a New
// chip (sampler included) and of a replay chip (trace position implied by
// the interval) into fresh chips, and demands identical continuations.
func TestSnapshotResumesBitIdentically(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	set := recordTraces(t, 9) // shorter than the run: replay wraps after the restore
	for name, build := range map[string]func() *CMP{
		"new":    func() *CMP { return newCMP(t, cfg) },
		"replay": func() *CMP { return newReplay(t, cfg, set) },
	} {
		src := build()
		stepPowers(src, 7, func(k int) int { return k % 8 })
		dst := build()
		if err := dst.Restore(snapshot.NewDecoder(snapshotChip(t, src))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := stepPowers(src, 10, func(k int) int { return 7 - k%8 })
		got := stepPowers(dst, 10, func(k int) int { return 7 - k%8 })
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: interval %d after restore: power %v, uninterrupted %v", name, 7+k, got[k], want[k])
			}
		}
	}
}
