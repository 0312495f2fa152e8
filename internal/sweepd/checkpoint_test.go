package sweepd

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// midRunCheckpoint builds a test point, advances it to interval 30, and
// returns the point, a checkpoint, and the summary of running the original
// to completion.
func midRunCheckpoint(t *testing.T) (Point, []byte, float64) {
	t.Helper()
	p := Point{Name: "ckpt-test", Build: func() (*Instance, error) {
		inst, _, err := buildTestInstance(9)
		return inst, err
	}}
	inst, _ := testInstance(t, 9)
	if n := inst.Session.RunIntervals(30); n != 30 {
		t.Fatalf("advanced %d intervals, want 30", n)
	}
	data, err := EncodeCheckpoint(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return p, data, inst.Session.Run().Instructions
}

func TestCheckpointRoundTrip(t *testing.T) {
	p, data, wantInstr := midRunCheckpoint(t)
	inst, cs := testInstance(t, 9)
	k, err := RestoreCheckpoint(p, inst, data)
	if err != nil {
		t.Fatal(err)
	}
	if k != 30 {
		t.Errorf("restored at interval %d, want 30", k)
	}
	if cs.steps != 30 {
		t.Errorf("aux state restored to %d steps, want 30", cs.steps)
	}
	if got := inst.Session.Run().Instructions; got != wantInstr {
		t.Errorf("resumed run diverged: %v instructions, want %v", got, wantInstr)
	}
	// A restored instance checkpoints to the identical bytes: the restore ∘
	// encode identity the fuzz target generalizes.
	inst2, _ := testInstance(t, 9)
	if _, err := RestoreCheckpoint(p, inst2, data); err != nil {
		t.Fatal(err)
	}
	re, err := EncodeCheckpoint(p, inst2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Error("re-encoded checkpoint differs from original")
	}
}

func TestCheckpointRejectsWrongPoint(t *testing.T) {
	_, data, _ := midRunCheckpoint(t)
	other := Point{Name: "other-point"}
	inst, _ := testInstance(t, 9)
	_, err := RestoreCheckpoint(other, inst, data)
	if !errors.Is(err, snapshot.ErrShape) || !strings.Contains(err.Error(), "ckpt-test") {
		t.Errorf("wrong-point restore = %v, want shape error naming the source point", err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	p, data, _ := midRunCheckpoint(t)
	t.Run("bit flip", func(t *testing.T) {
		for _, off := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
			mut := bytes.Clone(data)
			mut[off] ^= 0x40
			inst, _ := testInstance(t, 9)
			if _, err := RestoreCheckpoint(p, inst, mut); err == nil {
				t.Errorf("bit flip at offset %d restored silently", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 4, len(data) / 2, len(data) - 1} {
			inst, _ := testInstance(t, 9)
			if _, err := RestoreCheckpoint(p, inst, data[:n]); err == nil {
				t.Errorf("truncation to %d bytes restored silently", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		inst, _ := testInstance(t, 9)
		if _, err := RestoreCheckpoint(p, inst, append(bytes.Clone(data), 0xEE)); err == nil {
			t.Error("trailing byte restored silently")
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		e := snapshot.NewEncoder()
		e.Header(snapshot.Header{Kind: "cpmsim-session", Fingerprint: p.Name})
		inst, _ := testInstance(t, 9)
		if _, err := RestoreCheckpoint(p, inst, e.Bytes()); err == nil || !strings.Contains(err.Error(), "cpmsim-session") {
			t.Errorf("wrong-kind restore = %v", err)
		}
	})
}
