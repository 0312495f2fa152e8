package engine

import (
	"errors"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// ResumeAware is the optional capability an Observer implements when it
// needs to distinguish a run resumed from a snapshot from one started
// fresh. Session.Restore fires RunResumed (after RunStart) with the number
// of intervals the run had already completed when it was captured, so
// whole-run aggregators can stand down checks that need the full window.
type ResumeAware interface {
	RunResumed(completedIntervals int)
}

// SnapshotRunner is the optional capability a Runner implements when it can
// checkpoint its complete state (chip included) between Steps. All runners
// in this package implement it.
type SnapshotRunner interface {
	Runner
	// Snapshot appends the runner's complete dynamic state.
	Snapshot(e *snapshot.Encoder) error
	// Restore reads state written by Snapshot into a freshly constructed
	// runner of the same kind over an equivalently configured chip.
	Restore(d *snapshot.Decoder) error
}

// Runner kind bytes, written first so a snapshot restored into the wrong
// runner type fails loudly instead of misinterpreting bytes.
const (
	runnerKindCPM     = 1
	runnerKindChip    = 2
	runnerKindMaxBIPS = 3
)

// Snapshot implements SnapshotRunner. The GPM-observation scratch buffer is
// reset at the start of every Step and therefore not state.
func (r *CPMRunner) Snapshot(e *snapshot.Encoder) error {
	e.Tag(snapshot.TagRunner)
	e.U8(runnerKindCPM)
	e.Int(r.k)
	return r.ctl.Snapshot(e)
}

// Restore implements SnapshotRunner.
func (r *CPMRunner) Restore(d *snapshot.Decoder) error {
	k, err := decodeRunnerHead(d, runnerKindCPM)
	if err != nil {
		return err
	}
	if err := r.ctl.Restore(d); err != nil {
		return err
	}
	r.k = k
	return nil
}

// Snapshot implements SnapshotRunner.
func (r *ChipRunner) Snapshot(e *snapshot.Encoder) error {
	e.Tag(snapshot.TagRunner)
	e.U8(runnerKindChip)
	e.Int(r.k)
	return r.cmp.Snapshot(e)
}

// Restore implements SnapshotRunner.
func (r *ChipRunner) Restore(d *snapshot.Decoder) error {
	k, err := decodeRunnerHead(d, runnerKindChip)
	if err != nil {
		return err
	}
	if err := r.cmp.Restore(d); err != nil {
		return err
	}
	r.k = k
	return nil
}

// Snapshot implements SnapshotRunner. The planner is stateless
// configuration and the observation slice is never written, so the
// interval counter is the runner's only state.
func (r *MaxBIPSRunner) Snapshot(e *snapshot.Encoder) error {
	e.Tag(snapshot.TagRunner)
	e.U8(runnerKindMaxBIPS)
	e.Int(r.k)
	return r.cmp.Snapshot(e)
}

// Restore implements SnapshotRunner.
func (r *MaxBIPSRunner) Restore(d *snapshot.Decoder) error {
	k, err := decodeRunnerHead(d, runnerKindMaxBIPS)
	if err != nil {
		return err
	}
	if err := r.cmp.Restore(d); err != nil {
		return err
	}
	r.k = k
	return nil
}

// decodeRunnerHead reads the shared runner prelude and validates the kind.
func decodeRunnerHead(d *snapshot.Decoder, wantKind uint8) (k int, err error) {
	d.Tag(snapshot.TagRunner)
	kind := d.U8()
	k = d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if kind != wantKind {
		return 0, snapshot.ShapeErrorf("snapshot holds runner kind %d, target is kind %d", kind, wantKind)
	}
	if k < 0 {
		return 0, snapshot.ShapeErrorf("negative runner interval counter %d", k)
	}
	return k, nil
}

// Snapshot appends the session's complete state between intervals: a
// configuration echo, the runner (chip included), the interval cursor, the
// summary under construction and the epoch accumulators. The runner must
// implement SnapshotRunner; sessions that have not started or have already
// finished are not checkpointable.
func (s *Session) Snapshot(e *snapshot.Encoder) error {
	sr, ok := s.runner.(SnapshotRunner)
	if !ok {
		return errors.New("engine: runner does not support snapshots")
	}
	if s.prog == nil {
		return errors.New("engine: session not started; snapshot the chip instead")
	}
	if s.prog.finished {
		return errors.New("engine: session already finished")
	}
	p := s.prog
	e.Tag(snapshot.TagSession)
	e.Int(s.cfg.WarmEpochs)
	e.Int(s.cfg.MeasureEpochs)
	e.Int(s.cfg.Period)
	e.F64(s.cfg.BudgetW)
	if err := sr.Snapshot(e); err != nil {
		return err
	}
	e.Int(p.k)
	e.Tag(snapshot.TagSummary)
	e.F64(p.sum.MeanPowerW) // still the raw sum; finish divides
	e.F64(p.sum.MeanBIPS)   // likewise
	e.F64(p.sum.Instructions)
	e.F64(p.sum.WorstEpochOver)
	e.F64(p.sum.MaxTempC)
	e.F64s(p.sum.Epochs)
	e.F64s(p.sum.EpochInstr)
	encodeMatrix(e, p.sum.IslandAlloc)
	encodeMatrix(e, p.sum.IslandPower)
	encodeMatrix(e, p.sum.IslandBIPS)
	encodeMatrix(e, p.sum.AllocTrace)
	e.F64(p.epochPow)
	e.F64(p.epochInstr)
	e.F64(p.epochBIPSAcc)
	e.F64s(p.epochIslPow)
	e.F64s(p.epochIslBIPS)
	e.Bool(p.managed)
	e.Bool(p.lastAlloc != nil)
	if p.lastAlloc != nil {
		e.F64s(p.lastAlloc)
	}
	return nil
}

// Restore reads state written by Snapshot into a freshly constructed,
// not-yet-started session with an equivalent configuration, runner kind and
// chip, then announces the (resumed) run to observers. Restore stateful
// observers AFTER the session: the RunStart fired here resets them, and
// their own Restore then reinstates the captured state.
func (s *Session) Restore(d *snapshot.Decoder) error {
	sr, ok := s.runner.(SnapshotRunner)
	if !ok {
		return errors.New("engine: runner does not support snapshots")
	}
	if s.prog != nil {
		return errors.New("engine: session already started")
	}
	d.Tag(snapshot.TagSession)
	warmE := d.Int()
	measE := d.Int()
	period := d.Int()
	budget := d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if warmE != s.cfg.WarmEpochs || measE != s.cfg.MeasureEpochs ||
		period != s.cfg.Period || budget != s.cfg.BudgetW {
		return snapshot.ShapeErrorf(
			"snapshot session shape warm=%d meas=%d period=%d budget=%g, target warm=%d meas=%d period=%d budget=%g",
			warmE, measE, period, budget,
			s.cfg.WarmEpochs, s.cfg.MeasureEpochs, s.cfg.Period, s.cfg.BudgetW)
	}
	if err := sr.Restore(d); err != nil {
		return err
	}
	k := d.Int()
	d.Tag(snapshot.TagSummary)
	var sum Summary
	sum.MeanPowerW = d.F64()
	sum.MeanBIPS = d.F64()
	sum.Instructions = d.F64()
	sum.WorstEpochOver = d.F64()
	sum.MaxTempC = d.F64()
	sum.Epochs = d.F64s()
	sum.EpochInstr = d.F64s()
	sum.IslandAlloc = decodeMatrix(d)
	sum.IslandPower = decodeMatrix(d)
	sum.IslandBIPS = decodeMatrix(d)
	sum.AllocTrace = decodeMatrix(d)
	epochPow := d.F64()
	epochInstr := d.F64()
	epochBIPSAcc := d.F64()
	epochIslPow := d.F64s()
	epochIslBIPS := d.F64s()
	managed := d.Bool()
	var lastAlloc []float64
	if d.Bool() {
		lastAlloc = d.F64s()
	}
	if err := d.Err(); err != nil {
		return err
	}
	n := s.runner.Chip().NumIslands()
	warm := s.cfg.WarmEpochs * s.cfg.Period
	meas := s.cfg.MeasureEpochs * s.cfg.Period
	if k < 0 || k > warm+meas {
		return snapshot.ShapeErrorf("session cursor %d outside run of %d intervals", k, warm+meas)
	}
	if len(epochIslPow) != n || len(epochIslBIPS) != n ||
		len(sum.IslandPower) != n || len(sum.IslandBIPS) != n {
		return snapshot.ShapeErrorf("session island arrays do not match %d islands", n)
	}
	if sum.IslandAlloc != nil && len(sum.IslandAlloc) != n {
		return snapshot.ShapeErrorf("session allocation matrix sized %d, chip has %d islands", len(sum.IslandAlloc), n)
	}
	s.prog = &runProgress{
		k:            k,
		warm:         warm,
		meas:         meas,
		n:            n,
		sum:          sum,
		epochPow:     epochPow,
		epochInstr:   epochInstr,
		epochBIPSAcc: epochBIPSAcc,
		epochIslPow:  epochIslPow,
		epochIslBIPS: epochIslBIPS,
		managed:      managed,
		lastAlloc:    lastAlloc,
	}
	info := s.Info()
	for _, o := range s.obs {
		o.RunStart(info)
	}
	for _, o := range s.obs {
		if ra, ok := o.(ResumeAware); ok {
			ra.RunResumed(k)
		}
	}
	return nil
}

// encodeMatrix appends a slice of float64 rows; a nil matrix is encoded as
// zero rows (never-allocated and empty are not distinguished).
func encodeMatrix(e *snapshot.Encoder, m [][]float64) {
	e.Int(len(m))
	for _, row := range m {
		e.F64s(row)
	}
}

// decodeMatrix reads what encodeMatrix wrote, returning nil for zero rows.
func decodeMatrix(d *snapshot.Decoder) [][]float64 {
	n := d.Int()
	if d.Err() != nil || n <= 0 {
		return nil
	}
	if n > d.Remaining()/8 {
		// Bound by remaining bytes (each row costs at least a length
		// word) so a corrupt count cannot force a huge allocation.
		d.Fail("matrix row count %d exceeds remaining input", n)
		return nil
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = d.F64s()
	}
	return m
}
