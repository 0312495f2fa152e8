package uarch

import "github.com/cpm-sim/cpm/internal/snapshot"

// Snapshot appends the sampling core's dynamic state: phase and address
// generator streams and the cache hierarchy. includeL2 mirrors
// cache.Hierarchy.Snapshot — false when the L2 is shared per island and
// captured once at the island level. The
// address scratch buffers are reused per interval and never read before
// being overwritten, so they carry no state.
func (c *Core) Snapshot(e *snapshot.Encoder, includeL2 bool) {
	e.Tag(snapshot.TagCore)
	c.phases.Snapshot(e)
	c.streams.Snapshot(e)
	c.hier.Snapshot(e, includeL2)
}

// Restore reads state written by Snapshot.
func (c *Core) Restore(d *snapshot.Decoder, includeL2 bool) error {
	d.Tag(snapshot.TagCore)
	if err := c.phases.Restore(d); err != nil {
		return err
	}
	if err := c.streams.Restore(d); err != nil {
		return err
	}
	return c.hier.Restore(d, includeL2)
}

// Snapshot appends the compute core's dynamic state — only the cumulative
// instruction count; the workload state lives in the chip's record source.
func (c *ComputeCore) Snapshot(e *snapshot.Encoder) {
	e.Tag(snapshot.TagComputeCore)
	e.F64(c.totalInstructions)
}

// Restore reads state written by Snapshot.
func (c *ComputeCore) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagComputeCore)
	c.totalInstructions = d.F64()
	return d.Err()
}
