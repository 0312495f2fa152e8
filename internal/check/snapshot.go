package check

import "github.com/cpm-sim/cpm/internal/snapshot"

// Snapshot appends the recorder's mid-run state: the epoch digests emitted
// so far and the final digest's running value, keyed by scenario name so a
// restore into a recorder for a different scenario fails loudly.
func (g *Golden) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagGolden)
	e.String(g.scenario)
	e.Int(len(g.trace.EpochDigests))
	for _, dg := range g.trace.EpochDigests {
		e.String(dg)
	}
	e.Tag(snapshot.TagDeterminism)
	e.U64(g.sum)
}

// Restore reads state written by Snapshot. Call it after the restored
// session has fired RunStart: the restored digest already folds the run
// prologue, so it replaces whatever RunStart hashed and reset, and the
// resumed run extends the trace exactly where the original left off.
func (g *Golden) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagGolden)
	scenario := d.String()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if scenario != g.scenario {
		return snapshot.ShapeErrorf("snapshot records scenario %q, recorder is for %q", scenario, g.scenario)
	}
	if n < 0 || n > d.Remaining()/8 {
		return snapshot.ShapeErrorf("golden epoch-digest count %d", n)
	}
	digests := make([]string, n)
	for i := range digests {
		digests[i] = d.String()
	}
	d.Tag(snapshot.TagDeterminism)
	sum := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	g.trace = Trace{Scenario: g.scenario, Epochs: n, EpochDigests: digests}
	g.sum = sum
	return nil
}
