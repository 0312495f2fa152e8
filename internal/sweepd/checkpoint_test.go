package sweepd

import (
	"bytes"
	"errors"
	"hash/crc32"
	"hash/fnv"
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
	restore := func(b []byte) error {
		inst, _ := testInstance(t, 9)
		_, err := RestoreCheckpoint(p, inst, b)
		return err
	}
	t.Run("bit flip", func(t *testing.T) {
		// Every byte of the header, the digest and length fields and the
		// body's first word, then 64 offsets spread over the body and its
		// last byte; each has all its bits flipped.
		d := snapshot.NewDecoder(data)
		if _, err := d.Header(); err != nil {
			t.Fatal(err)
		}
		var offs []int
		for off := 0; off < len(data)-d.Remaining()+8+4+8; off++ {
			offs = append(offs, off)
		}
		for i := 0; i < 64; i++ {
			offs = append(offs, (2*i+1)*len(data)/128)
		}
		offs = append(offs, len(data)-1)
		for _, off := range offs {
			mut := bytes.Clone(data)
			mut[off] ^= 0xff
			if err := restore(mut); err == nil {
				t.Errorf("byte flip at offset %d of %d restored silently", off, len(data))
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 4, 30, len(data) / 3, len(data) / 2, len(data) - 8, len(data) - 1} {
			if err := restore(data[:n]); err == nil {
				t.Errorf("truncation to %d bytes restored silently", n)
			}
		}
	})
	t.Run("earlier format", func(t *testing.T) {
		// The same body under the earlier kind and its FNV-1a digest: a
		// checkpoint written before the CRC-32C digest is refused by
		// kind, not read as corrupt.
		d := snapshot.NewDecoder(data)
		if _, err := d.Header(); err != nil {
			t.Fatal(err)
		}
		d.U64()
		body := d.Blob()
		h := fnv.New64a()
		h.Write(body)
		e := snapshot.NewEncoder()
		e.Header(snapshot.Header{Kind: "sweepd-point", Fingerprint: p.Name})
		e.U64(h.Sum64())
		e.Blob(body)
		err := restore(e.Bytes())
		if !errors.Is(err, snapshot.ErrShape) || !strings.Contains(err.Error(), `"sweepd-point", not a "sweepd-point/2"`) {
			t.Errorf("earlier-format restore = %v, want a wrong-kind error", err)
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

// TestCheckpointLayout pins the checkpoint file: the header, the CRC-32C of
// the body zero-extended to 8 bytes, then the body as a length-prefixed
// blob, all in one buffer whose capacity the size hint sets.
func TestCheckpointLayout(t *testing.T) {
	p, data, _ := midRunCheckpoint(t)
	d := snapshot.NewDecoder(data)
	h, err := d.Header()
	if err != nil || h.Kind != CheckpointKind || h.Fingerprint != p.Name {
		t.Fatalf("header %+v, err %v", h, err)
	}
	digest := d.U64()
	body := d.Blob()
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("err %v, %d trailing bytes", err, d.Remaining())
	}
	if want := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))); digest != want {
		t.Errorf("digest field %#x, want the body's CRC-32C %#x", digest, want)
	}
	inst, _ := testInstance(t, 9)
	if _, err := RestoreCheckpoint(p, inst, data); err != nil {
		t.Fatal(err)
	}
	sized, err := encodeCheckpoint(p, inst, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sized, data) {
		t.Error("a size-hinted encoding differs from EncodeCheckpoint's")
	}
	if want := len(data) + len(data)/64; cap(sized) != want {
		t.Errorf("size-hinted checkpoint grew: cap %d, want %d", cap(sized), want)
	}
}

// benchCheckpoint returns a Mix-1 test point advanced to interval 40 and
// its checkpoint.
func benchCheckpoint(b *testing.B) (Point, *Instance, []byte) {
	p := Point{Name: "bench", Build: func() (*Instance, error) {
		inst, _, err := buildTestInstance(3)
		return inst, err
	}}
	inst, _ := testInstance(b, 3)
	inst.Session.RunIntervals(40)
	data, err := EncodeCheckpoint(p, inst)
	if err != nil {
		b.Fatal(err)
	}
	return p, inst, data
}

// BenchmarkCheckpointEncode is one checkpoint as the drive loop takes it:
// a Mix-1 session at interval 40, encoded into a buffer sized from the
// point's previous checkpoint.
func BenchmarkCheckpointEncode(b *testing.B) {
	p, inst, data := benchCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeCheckpoint(p, inst, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore restores that checkpoint into a freshly built
// instance per iteration; the build is not timed or counted.
func BenchmarkCheckpointRestore(b *testing.B) {
	p, _, data := benchCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst, _ := testInstance(b, 3)
		b.StartTimer()
		if _, err := RestoreCheckpoint(p, inst, data); err != nil {
			b.Fatal(err)
		}
	}
}
