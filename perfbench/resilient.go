package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/sweepd"
)

// minPointSamples keeps the timed phase going until cold_p90_ms has
// minBeyond samples beyond it.
const minPointSamples = 10 * minBeyond

// killEvery is the deterministic kill cadence: every point completes an
// interval divisible by it at least once (the shortest point runs 120), so
// every point is killed and restored from a checkpoint at least once.
const killEvery = 50

// restoreMark is the last aux state of a traced incarnation. Its Restore
// runs last in sweepd.RestoreCheckpoint, closing the restore span that
// began when the coordinator called Build for the migrated point.
type restoreMark struct{ clk *clock }

func (m restoreMark) Snapshot(*snapshot.Encoder) {}

func (m restoreMark) Restore(*snapshot.Decoder) error {
	now := time.Now()
	m.clk.l.restore.add(now.Sub(m.clk.last))
	m.clk.last = now
	return nil
}

// resilientRound is the per-round bookkeeping of the sweepd route: the
// final incarnation of each point and every traced clock.
type resilientRound struct {
	mu         sync.Mutex
	recs       []*record
	suites     []*check.Suite
	firstBuild []time.Time
	builds     []int
	clocks     []*clock
	samplers   []*sim.Sampler
}

// points wraps pts as sweepd points. Build is called again for every
// migration, so each call records a fresh incarnation.
func (r *run) resilientPoints(pts []point, rr *resilientRound, traced bool) []sweepd.Point {
	sp := make([]sweepd.Point, len(pts))
	for i, p := range pts {
		i, p := i, p
		sp[i] = sweepd.Point{Name: p.name, Build: func() (*sweepd.Instance, error) {
			t0 := time.Now()
			rec := newRecord(p)
			rr.mu.Lock()
			restoring := rr.builds[i] > 0
			rr.builds[i]++
			if !restoring {
				rr.firstBuild[i] = t0
			}
			rr.mu.Unlock()
			var sess *engine.Session
			var suite *check.Suite
			var err error
			var clk *clock
			var sampler *sim.Sampler
			if traced {
				clk = newClock()
				sess, suite, sampler, err = r.buildTraced(p, clk, rec, !restoring)
			} else {
				sess, suite, err = p.sc.Build(p.seed, rec.observers()...)
			}
			if err != nil {
				return nil, err
			}
			rr.recs[i], rr.suites[i] = rec, suite
			inst := &sweepd.Instance{Session: sess, Aux: []sweepd.State{rec.golden, rec}, Check: suite.Err}
			if !traced {
				return inst, nil
			}
			rr.mu.Lock()
			rr.clocks = append(rr.clocks, clk)
			rr.samplers[i] = sampler
			rr.mu.Unlock()
			if restoring {
				clk.last = t0 // the rebuild is part of the restore span
			} else {
				clk.l.build.add(time.Since(t0))
				clk.last = time.Now()
			}
			clk.started = true
			// A record-driven chip's checkpoint excludes its sampler, whose
			// owner captures it: here, the point itself.
			inst.Aux = append(inst.Aux, sampler, restoreMark{clk})
			inst.Check = func() error {
				err := suite.Err()
				now := time.Now()
				clk.l.engine += now.Sub(clk.last)
				clk.last = now
				if k := sess.Completed(); k%20 == 0 && k < sess.TotalIntervals() {
					clk.snapPending = true
				}
				return err
			}
			return inst, nil
		}}
	}
	return sp
}

// sweepRound runs pts once through a sweepd coordinator that checkpoints
// every GPM epoch and kills every point at least once, and judges every
// point: it must have been built, restored by the kill plan, finished, free
// of invariant violations and digest-identical to its reference.
func (r *run) sweepRound(pts []point, traced bool) (*resilientRound, time.Duration, sweepd.Stats, error) {
	rr := &resilientRound{
		recs: make([]*record, len(pts)), suites: make([]*check.Suite, len(pts)),
		firstBuild: make([]time.Time, len(pts)), builds: make([]int, len(pts)),
		samplers: make([]*sim.Sampler, len(pts)),
	}
	c, err := sweepd.New(r.resilientPoints(pts, rr, traced), sweepd.Config{Workers: workers, KillEvery: killEvery})
	if err != nil {
		return nil, 0, sweepd.Stats{}, err
	}
	settle()
	t := time.Now()
	_, runErr := c.Run()
	wall := time.Since(t)
	if runErr != nil {
		r.gate.fail(runErr)
	}
	r.attempted += len(pts)
	for i, p := range pts {
		rec := rr.recs[i]
		if rec == nil {
			r.gate.fail(fmt.Errorf("%s: never built", p.name))
			continue
		}
		if rr.builds[i] < 2 {
			r.gate.fail(fmt.Errorf("%s: the kill plan never restored it", p.name))
		}
		r.gate.judge(p, rec.golden.Trace(), nil, suiteErr(rr.suites[i]), rec.done)
	}
	return rr, wall, c.Stats(), nil
}

// buildTraced assembles p over a record-driven chip fed by a timed private
// sampler (bit-identical to a live chip), with the span observer last.
// replay is false for a restored incarnation: a fresh GPM manager or
// MaxBIPS planner would lack the history the killed one had.
func (r *run) buildTraced(p point, clk *clock, rec *record, replay bool) (*engine.Session, *check.Suite, *sim.Sampler, error) {
	cfg := p.sc.BuildConfig(p.seed)
	sampler, err := sim.NewSampler(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cmp, err := tracedChip(cfg, &timedSource{s: sampler, clk: clk}, true)
	if err != nil {
		return nil, nil, nil, err
	}
	obs := append(rec.observers(), newSpanObserver(clk, p, cmp, replay, r.gate.fail))
	sess, suite, err := p.sc.BuildOn(cmp, p.seed, obs...)
	return sess, suite, sampler, err
}

// runResilient drives the resilient workload: the scalar point set, round
// after round, through sweepd, until the round that ends nearest to
// --seconds into the timed phase (and enough latency samples). A traced
// invocation alternates untraced and traced rounds; its ledger comes from
// the traced ones and trace.overhead_pct from the comparison.
func runResilient(r *run) error {
	pts := scalarPoints(r.opts.seed)
	perRound := 0
	for _, p := range pts {
		perRound += p.intervals()
	}
	r.zeroLayers()
	if err := r.calibrate(pts); err != nil {
		return err
	}
	if r.setupComplete() {
		return nil
	}
	var lat samples
	var model simTotals
	var untracedWall, tracedWall []float64
	var roundWall time.Duration
	merged := newLayers()
	var cache cacheCounts
	var st sweepd.Stats
	intervals := 0
	for round := 0; ; round++ {
		traced := r.opts.trace && round%2 == 1
		rr, wall, counts, err := r.sweepRound(pts, traced)
		if err != nil {
			return err
		}
		intervals += perRound
		r.logRound(round, traced, wall, perRound)
		for i, p := range pts {
			if rec := rr.recs[i]; rec != nil && rec.done {
				lat.addDur(rec.end.Sub(rr.firstBuild[i]), time.Millisecond)
			}
			if round == 0 && rr.recs[i] != nil {
				model.addRecord(p, rr.recs[i])
			}
		}
		if traced {
			tracedWall = append(tracedWall, wall.Seconds())
			roundWall += wall
			for _, clk := range rr.clocks {
				merged.merge(clk.l)
			}
			for _, s := range rr.samplers {
				cache.add(s)
			}
		} else {
			untracedWall = append(untracedWall, wall.Seconds())
			st.Checkpoints += counts.Checkpoints
			st.CheckpointBytes += counts.CheckpointBytes
			st.Kills += counts.Kills
		}
		// Stop at the round whose end lies nearest to --seconds.
		enough := r.elapsed()+wall.Seconds()/2 >= r.opts.seconds && len(lat.vals) >= minPointSamples
		if enough && (!r.opts.trace || len(tracedWall) > 0) {
			break
		}
	}
	if r.opts.trace {
		r.chipLayers(merged, cache)
		stepped := merged.spans() + merged.encode.d + merged.restore.d
		busy := stepped + merged.excluded + merged.build.d
		r.layer.set("pool.idle_share", "ratio", 1-ratio(float64(busy), float64(workers)*float64(roundWall)), len(tracedWall))
		r.layer.set("snapshot.encode_ns", "ns", merged.encode.meanNs(), int(merged.encode.n))
		r.layer.set("snapshot.restore_ns", "ns", merged.restore.meanNs(), int(merged.restore.n))
		r.layer.set("snapshot.checkpoint_kb", "KiB", ratio(float64(st.CheckpointBytes)/1024, float64(st.Checkpoints)), st.Checkpoints)
		r.layer.set("snapshot.share", "ratio", ratio(float64(merged.encode.d+merged.restore.d), float64(stepped)), int(merged.intervals))
		// Checkpoint counts and sizes come from the untraced rounds: a
		// traced checkpoint also carries the sampler its live twin keeps
		// inside the chip.
		untraced := float64(len(untracedWall))
		r.layer.set("sweepd.checkpoints", "count", float64(st.Checkpoints)/untraced, len(untracedWall))
		r.layer.set("sweepd.kills", "count", float64(st.Kills)/untraced, len(untracedWall))
		forward := float64(perRound) * float64(len(tracedWall))
		r.layer.set("sweepd.reexec_ratio", "ratio", ratio(float64(merged.intervals)-forward, forward), int(merged.intervals))
		// No public boundary times a sweepd incarnation from outside, so
		// coverage is reported against the pool's capacity, not enforced.
		r.unattributed(busy, time.Duration(workers)*roundWall, false)
		r.overhead(tracedWall, untracedWall)
		r.goLayer(float64(intervals))
		return nil
	}
	r.e2e.set("chip_intervals_per_s", "1/s", medianRate(perRound, untracedWall), len(untracedWall))
	model.metrics(r.e2e)
	if err := r.e2e.setPct("cold_p50_ms", &lat, 0.50); err != nil {
		return err
	}
	return r.e2e.setPct("cold_p90_ms", &lat, 0.90)
}
