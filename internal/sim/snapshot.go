package sim

import (
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// Snapshot appends the chip's complete dynamic state: interval counter,
// cumulative instructions, memory and NoC congestion, thermal node
// temperatures, the process-variation map, per island its DVFS state and
// per-core instruction counts, and — behind a presence flag — the sampler
// a New chip owns. A chip fed by any other record source leaves the source
// to its owner (the farm captures each group's shared sampler once).
func (c *CMP) Snapshot(e *snapshot.Encoder) error {
	e.Tag(snapshot.TagChip)
	// Structural echo, validated on restore before any state is touched.
	e.Int(c.nCores)
	e.Int(len(c.islands))
	for _, st := range c.islands {
		e.Int(len(st.cores))
	}
	// v3: per-island identity — the technology configuration plus each
	// island's core class and DVFS-table shape. Restore rejects any
	// mismatch, so a snapshot cannot silently land on a chip whose islands
	// run different tables (per-island DVFS state would be reinterpreted
	// against the wrong operating points).
	e.Int(int(c.cfg.Tech.Node))
	e.U8(uint8(c.cfg.Tech.Variant))
	for _, st := range c.islands {
		e.U8(uint8(st.class))
		tbl := st.model.Table
		e.Int(tbl.Levels())
		e.F64(tbl.Min().FreqMHz)
		e.F64(tbl.Max().FreqMHz)
	}
	e.Int(c.interval)
	e.F64(c.totalInstr)
	c.memsys.Snapshot(e)
	e.Bool(c.mesh != nil)
	if c.mesh != nil {
		c.mesh.Snapshot(e)
	}
	c.thermals.Snapshot(e)
	c.varmap.Snapshot(e)
	for _, st := range c.islands {
		st.isl.Snapshot(e)
		for _, core := range st.cores {
			core.Snapshot(e)
		}
	}
	// v4: the owned sampler. Restore rejects a presence mismatch, so a
	// chip's workload state never silently goes missing or appears.
	e.Bool(c.sampler != nil)
	if c.sampler != nil {
		c.sampler.Snapshot(e)
	}
	return nil
}

// Restore reads state written by Snapshot into a freshly constructed,
// structurally identical chip. On any error the chip may be partially
// written and must be discarded.
func (c *CMP) Restore(d *snapshot.Decoder) error {
	d.Tag(snapshot.TagChip)
	nCores := d.Int()
	nIslands := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nCores != c.nCores || nIslands != len(c.islands) {
		return snapshot.ShapeErrorf("snapshot chip is %d cores / %d islands, target is %d / %d",
			nCores, nIslands, c.nCores, len(c.islands))
	}
	for i, st := range c.islands {
		if n := d.Int(); d.Err() == nil && n != len(st.cores) {
			return snapshot.ShapeErrorf("snapshot island %d has %d cores, target has %d", i, n, len(st.cores))
		}
	}
	techNode := d.Int()
	techVariant := d.U8()
	if err := d.Err(); err != nil {
		return err
	}
	if power.TechNode(techNode) != c.cfg.Tech.Node || power.TechVariant(techVariant) != c.cfg.Tech.Variant {
		return snapshot.ShapeErrorf("snapshot tech %s, target %s",
			power.TechConfig{Node: power.TechNode(techNode), Variant: power.TechVariant(techVariant)}, c.cfg.Tech)
	}
	for i, st := range c.islands {
		class := d.U8()
		levels := d.Int()
		minF := d.F64()
		maxF := d.F64()
		if err := d.Err(); err != nil {
			return err
		}
		if power.CoreClass(class) != st.class {
			return snapshot.ShapeErrorf("snapshot island %d class %s, target %s",
				i, power.CoreClass(class), st.class)
		}
		tbl := st.model.Table
		if levels != tbl.Levels() || minF != tbl.Min().FreqMHz || maxF != tbl.Max().FreqMHz {
			return snapshot.ShapeErrorf("snapshot island %d table %d levels %.1f–%.1f MHz, target %d levels %.1f–%.1f MHz",
				i, levels, minF, maxF, tbl.Levels(), tbl.Min().FreqMHz, tbl.Max().FreqMHz)
		}
	}
	c.interval = d.Int()
	c.totalInstr = d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if c.interval < 0 {
		return snapshot.ShapeErrorf("negative chip interval %d", c.interval)
	}
	if err := c.memsys.Restore(d); err != nil {
		return err
	}
	hadMesh := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hadMesh != (c.mesh != nil) {
		return snapshot.ShapeErrorf("snapshot NoC presence %v, target %v", hadMesh, c.mesh != nil)
	}
	if c.mesh != nil {
		if err := c.mesh.Restore(d); err != nil {
			return err
		}
	}
	if err := c.thermals.Restore(d); err != nil {
		return err
	}
	if err := c.varmap.Restore(d); err != nil {
		return err
	}
	for _, st := range c.islands {
		if err := st.isl.Restore(d); err != nil {
			return err
		}
		for _, core := range st.cores {
			if err := core.Restore(d); err != nil {
				return err
			}
		}
	}
	hadSampler := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hadSampler != (c.sampler != nil) {
		return snapshot.ShapeErrorf("snapshot sampler presence %v, target %v", hadSampler, c.sampler != nil)
	}
	if c.sampler != nil {
		if err := c.sampler.Restore(d); err != nil {
			return err
		}
		if cur := c.sampler.Cursor(); cur != c.interval {
			return snapshot.ShapeErrorf("snapshot sampler cursor %d, chip at interval %d", cur, c.interval)
		}
	}
	return d.Err()
}
