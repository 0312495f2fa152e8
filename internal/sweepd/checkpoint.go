// Package sweepd makes long parameter sweeps preemptible and migratable.
//
// A sweep is a set of independent Points, each of which builds into an
// engine.Session plus ancillary checkpointable state (typically golden
// observers). A Coordinator drives the points over a pool of worker
// goroutines; workers checkpoint their in-flight point at interval
// boundaries, and when a worker dies mid-point — injected deterministically
// by a kill plan, or organically by a panic inside the simulation — the
// coordinator reassigns the point to a surviving worker, shipping the
// latest checkpoint so only the intervals since that boundary re-execute.
//
// Because every point is deterministic and checkpoints capture complete
// session state, a resumed point replays the lost intervals bit-identically:
// a sweep that suffered any number of kills produces byte-identical output
// to one that suffered none. That equivalence is the package's contract and
// is pinned by the golden kill-equivalence suite in internal/check.
//
// Checkpoints are self-describing snapshot files (Header kind
// "sweepd-point/2", fingerprint = the point name) whose body is covered by a
// CRC-32C integrity digest, so truncation, bit flips, or a checkpoint from
// the wrong point always fail restore with an error — never a divergent
// resume. cpmsim's checkpoint files use the same format.
package sweepd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// CheckpointKind tags sweepd point checkpoints in the snapshot header so a
// session or chip snapshot handed to RestoreCheckpoint (or vice versa)
// fails loudly instead of misparsing. The "/2" marks the CRC-32C digest: a
// checkpoint of the earlier FNV-1a format ("sweepd-point") is refused as
// the wrong kind, not as a corrupt one.
const CheckpointKind = "sweepd-point/2"

// State is ancillary checkpointable state carried alongside a point's
// session — typically stateful observers such as check.Golden, whose
// digests would silently diverge if the session migrated without them.
type State interface {
	Snapshot(e *snapshot.Encoder)
	Restore(d *snapshot.Decoder) error
}

// Instance is one constructed incarnation of a point: a session (not yet
// started, unless restored) plus the aux state included in its checkpoints.
// Aux order is part of the checkpoint format and must be identical across
// incarnations of the same point.
type Instance struct {
	Session *engine.Session
	Aux     []State
	// Check, when set, is consulted at every interval boundary; a non-nil
	// error fails the point permanently at that boundary. Use it to
	// surface invariant violations before a later checkpoint could
	// migrate past the offending (and not replayed) intervals.
	Check func() error
}

// Point is one migratable unit of sweep work. Build must be deterministic
// and repeatable: after a worker dies it is called again on another worker
// to construct a fresh instance for the checkpoint to restore into. Name
// doubles as the checkpoint fingerprint, so it must be unique within a run.
type Point struct {
	Name  string
	Build func() (*Instance, error)
}

// castagnoli is the CRC-32C table; crc32 computes it with the CPU's CRC
// instructions where they exist.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyDigest is the integrity digest over the checkpoint body, CRC-32C
// zero-extended into the 8-byte digest field. It detects the corruption
// classes shape checks cannot: bit flips inside float payloads decode to
// legal but wrong values, so restore must refuse anything whose bytes
// changed. CRC-32C is the standard storage checksum, detects every burst
// error of up to 32 bits, and runs at memory speed, where a byte-serial
// hash cost a checkpoint as much as encoding it.
func bodyDigest(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))
}

// EncodeCheckpoint captures inst at its current interval boundary as a
// self-describing checkpoint for p. Layout: snapshot header (kind
// CheckpointKind, fingerprint = point name), the body's digest, then the
// body blob — completed-interval count, session snapshot, aux count, aux
// states.
func EncodeCheckpoint(p Point, inst *Instance) ([]byte, error) {
	return encodeCheckpoint(p, inst, 0)
}

// encodeCheckpoint is EncodeCheckpoint into one buffer sized from sizeHint,
// the size of the point's previous checkpoint. A point's checkpoints grow
// only by per-epoch records (about 100 bytes an epoch for a Mix-1 session
// of 765 KB), so 1/64 of headroom keeps the next one in a single
// allocation. The digest and blob-length fields are reserved ahead of the
// body, which is encoded straight after them, and patched once it is
// complete.
func encodeCheckpoint(p Point, inst *Instance, sizeHint int) ([]byte, error) {
	e := snapshot.NewEncoderSize(sizeHint + sizeHint/64)
	e.Header(snapshot.Header{Kind: CheckpointKind, Fingerprint: p.Name})
	fields := e.Len()
	e.U64(0) // digest
	e.U32(0) // body length
	start := e.Len()
	e.Int(inst.Session.Completed())
	if err := inst.Session.Snapshot(e); err != nil {
		return nil, fmt.Errorf("sweepd: checkpointing %s: %w", p.Name, err)
	}
	e.Int(len(inst.Aux))
	for _, a := range inst.Aux {
		a.Snapshot(e)
	}
	b := e.Bytes()
	body := b[start:]
	binary.LittleEndian.PutUint64(b[fields:], bodyDigest(body))
	binary.LittleEndian.PutUint32(b[fields+8:], uint32(len(body)))
	return b, nil
}

// RestoreCheckpoint restores a checkpoint produced by EncodeCheckpoint into
// a freshly built instance of the same point, returning the interval the
// point resumes from. Every validation failure — wrong kind, wrong point,
// digest mismatch, truncation, trailing bytes, aux-count mismatch, or an
// interval echo that disagrees with the restored session — is an error;
// a nil error guarantees the instance is bit-identical to the one
// checkpointed.
func RestoreCheckpoint(p Point, inst *Instance, data []byte) (int, error) {
	d := snapshot.NewDecoder(data)
	h, err := d.Header()
	if err != nil {
		return 0, fmt.Errorf("sweepd: reading checkpoint for %s: %w", p.Name, err)
	}
	if h.Kind != CheckpointKind {
		return 0, snapshot.ShapeErrorf("sweepd: snapshot is a %q, not a %q checkpoint", h.Kind, CheckpointKind)
	}
	if h.Fingerprint != p.Name {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint was taken for point %q, restoring point %q", h.Fingerprint, p.Name)
	}
	digest := d.U64()
	body := d.Blob()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("sweepd: reading checkpoint for %s: %w", p.Name, err)
	}
	if rem := d.Remaining(); rem != 0 {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint for %s has %d trailing bytes", p.Name, rem)
	}
	if got := bodyDigest(body); got != digest {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint for %s failed integrity check: digest %016x, header says %016x (corrupt or tampered)",
			p.Name, got, digest)
	}
	bd := snapshot.NewDecoder(body)
	k := bd.Int()
	if err := inst.Session.Restore(bd); err != nil {
		return 0, fmt.Errorf("sweepd: restoring %s: %w", p.Name, err)
	}
	nAux := bd.Int()
	if err := bd.Err(); err != nil {
		return 0, fmt.Errorf("sweepd: restoring %s: %w", p.Name, err)
	}
	if nAux != len(inst.Aux) {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint for %s carries %d aux states, instance has %d", p.Name, nAux, len(inst.Aux))
	}
	// Aux states restore after the session: Session.Restore re-runs RunStart
	// on observers, so restoring them afterwards reinstates their mid-run
	// state on top of that reset.
	for i, a := range inst.Aux {
		if err := a.Restore(bd); err != nil {
			return 0, fmt.Errorf("sweepd: restoring %s aux %d: %w", p.Name, i, err)
		}
	}
	if rem := bd.Remaining(); rem != 0 {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint body for %s has %d trailing bytes", p.Name, rem)
	}
	if got := inst.Session.Completed(); got != k {
		return 0, snapshot.ShapeErrorf("sweepd: checkpoint for %s says interval %d, restored session at %d", p.Name, k, got)
	}
	return k, nil
}
