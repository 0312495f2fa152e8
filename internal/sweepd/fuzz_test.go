package sweepd

import (
	"bytes"
	"testing"
)

// FuzzCheckpointRestore is the migration-path robustness target: whatever
// bytes arrive as a checkpoint, RestoreCheckpoint must either reject them
// with an error or restore a state whose re-encoding is byte-identical to
// the input — never a silently divergent resume. Truncations, bit flips,
// and wrong-fingerprint headers all land in the reject arm via the header,
// shape, and CRC-32C integrity checks.
func FuzzCheckpointRestore(f *testing.F) {
	point := Point{Name: "fuzz-point", Build: func() (*Instance, error) {
		inst, _, err := buildTestInstance(5)
		return inst, err
	}}
	seedInst, _, err := buildTestInstance(5)
	if err != nil {
		f.Fatal(err)
	}
	seedInst.Session.RunIntervals(20)
	valid, err := EncodeCheckpoint(point, seedInst)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0x01
	f.Add(mut)
	wrong, err := EncodeCheckpoint(Point{Name: "other"}, seedInst)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrong)

	f.Fuzz(func(t *testing.T, data []byte) {
		inst, _, err := buildTestInstance(5)
		if err != nil {
			t.Fatal(err)
		}
		k, err := RestoreCheckpoint(point, inst, data)
		if err != nil {
			return // rejected: the safe outcome for arbitrary bytes
		}
		if got := inst.Session.Completed(); got != k {
			t.Fatalf("accepted checkpoint: reported interval %d, session at %d", k, got)
		}
		re, err := EncodeCheckpoint(point, inst)
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted checkpoint is not re-encode-identical: restore would diverge from the checkpointed trajectory (%d vs %d bytes)",
				len(re), len(data))
		}
	})
}
