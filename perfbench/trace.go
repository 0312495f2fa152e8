package main

import (
	"fmt"
	"time"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/maxbips"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/uarch"
)

// The traced run takes timestamps only at public boundaries of the chip
// step, so that per chip-interval four spans partition the wall time of the
// goroutine stepping it:
//
//	core        previous boundary -> RecordSource.Records entry
//	            (GPM provisioning / MaxBIPS planning, PIC invokes)
//	sim.sample  Records itself (phase machines, address streams, caches)
//	sim.compute Records exit -> sim.CMP step hook (uarch compute, power,
//	            thermal, memory, NoC, islands)
//	engine      step hook -> the last engine.Observer (core accumulators,
//	            session accounting, check suites, golden recorders)
//
// A clock is owned by one goroutine: one point, or one farm group whose
// members step one after another. The tracer's own replay work is kept out
// of the spans and counted as excluded.

// acc is a duration total and its sample count.
type acc struct {
	d time.Duration
	n int64
}

func (a *acc) add(d time.Duration) { a.d += d; a.n++ }

func (a acc) meanNs() float64 { return ratio(float64(a.d), float64(a.n)) }

// layers accumulates attributed time and counts.
type layers struct {
	core, sample, compute, engine time.Duration
	excluded                      time.Duration
	intervals, fresh              int64
	step8                         acc // Records entry -> step hook of live-equivalent Mix-1 8-core chips
	encode, restore, build        acc
	provision                     map[string]*acc
	plan                          acc
	picInvokes, picTransitions    int64
	gpmEpochs                     int64
}

func newLayers() *layers { return &layers{provision: map[string]*acc{}} }

func (l *layers) spans() time.Duration { return l.core + l.sample + l.compute + l.engine }

func (l *layers) merge(o *layers) {
	l.core += o.core
	l.sample += o.sample
	l.compute += o.compute
	l.engine += o.engine
	l.excluded += o.excluded
	l.intervals += o.intervals
	l.fresh += o.fresh
	for _, p := range []struct{ dst, src *acc }{
		{&l.step8, &o.step8}, {&l.encode, &o.encode}, {&l.restore, &o.restore},
		{&l.build, &o.build}, {&l.plan, &o.plan},
	} {
		p.dst.d += p.src.d
		p.dst.n += p.src.n
	}
	for name, a := range o.provision {
		if l.provision[name] == nil {
			l.provision[name] = &acc{}
		}
		l.provision[name].d += a.d
		l.provision[name].n += a.n
	}
	l.picInvokes += o.picInvokes
	l.picTransitions += o.picTransitions
	l.gpmEpochs += o.gpmEpochs
}

// clock is the span boundary state of one stepping goroutine.
type clock struct {
	l       *layers
	last    time.Time
	started bool
	// recEnter is the last Records entry; snapPending marks a checkpoint
	// boundary, whose time up to the next Records entry is the encode.
	recEnter    time.Time
	snapPending bool
}

func newClock() *clock { return &clock{l: newLayers()} }

// start opens the clock at t unless it is already running.
func (c *clock) start(t time.Time) {
	if !c.started {
		c.last, c.started = t, true
	}
}

// timedSource wraps a sampler as the chips' record source, closing the
// core span and timing sim.sample.
type timedSource struct {
	s   *sim.Sampler
	clk *clock
}

// Records implements sim.RecordSource.
func (t *timedSource) Records(k int) []uarch.TraceRecord {
	c := t.clk
	enter := time.Now()
	if c.snapPending {
		c.l.encode.add(enter.Sub(c.last))
		c.snapPending = false
	} else {
		c.l.core += enter.Sub(c.last)
	}
	fresh := k == t.s.Cursor()
	recs := t.s.Records(k)
	c.last = time.Now()
	c.recEnter = enter
	c.l.sample += c.last.Sub(enter)
	if fresh {
		c.l.fresh++
	}
	return recs
}

// tracedChip builds a record-driven chip over src, wired as farm groups
// wire theirs, with the step hook that closes sim.compute. ownSampler marks
// a chip whose sampler no other chip shares (its step equals a live step).
func tracedChip(cfg sim.Config, src *timedSource, ownSampler bool) (*sim.CMP, error) {
	cmp, err := sim.NewWithRecords(cfg, src)
	if err != nil {
		return nil, err
	}
	cmp.SetCacheStatsSource(src.s.CacheStats)
	cmp.SetIslandCacheStatsSource(src.s.IslandCacheStats)
	step8 := ownSampler && cfg.Mix.Name == "Mix-1" && cmp.NumCores() == 8 &&
		cfg.IslandClasses == nil && !cfg.Tech.Enabled()
	c := src.clk
	cmp.AddStepHook(func(sim.Result) {
		now := time.Now()
		c.l.compute += now.Sub(c.last)
		if step8 {
			c.l.step8.add(now.Sub(c.recEnter))
		}
		c.last = now
	})
	return cmp, nil
}

// spanObserver is the last observer of a traced session: it closes the
// engine span, counts PIC and GPM work from the step stream, and replays
// every GPM provision (or MaxBIPS plan) through a fresh instance, timing it
// and checking that it reproduces the run's decision exactly.
type spanObserver struct {
	clk  *clock
	p    point
	cmp  *sim.CMP
	fail func(error)
	// replay is false where a fresh manager cannot follow the run (resumed
	// incarnations of the resilient route).
	replay bool

	mgr     *gpm.Manager
	policy  string
	planner *maxbips.Planner
	budgetW float64
	prevLvl []int
	accPow  []float64
	accBIPS []float64
}

func newSpanObserver(clk *clock, p point, cmp *sim.CMP, replay bool, fail func(error)) *spanObserver {
	return &spanObserver{clk: clk, p: p, cmp: cmp, replay: replay, fail: fail}
}

// RunStart implements engine.Observer.
func (o *spanObserver) RunStart(info engine.RunInfo) {
	now := time.Now()
	o.clk.start(now)
	o.budgetW = info.BudgetW
	if !o.replay {
		return
	}
	var err error
	if o.p.sc.MaxBIPS {
		o.planner, err = engine.NewStaticPlanner(o.cmp)
		n := o.cmp.NumIslands()
		o.prevLvl, o.accPow, o.accBIPS = make([]int, n), make([]float64, n), make([]float64, n)
	} else {
		var pol gpm.Policy = &gpm.PerformanceAware{}
		if o.p.sc.Policy != nil {
			pol, err = o.p.sc.Policy()
		}
		if err == nil {
			o.policy = pol.Name()
			o.mgr, err = gpm.NewManager(pol, info.BudgetW)
		}
	}
	if err != nil {
		o.fail(fmt.Errorf("%s: replay set-up: %w", o.p.name, err))
		o.replay = false
	}
	o.clk.l.excluded += time.Since(now)
	o.clk.last = time.Now()
}

// ObserveStep implements engine.Observer.
func (o *spanObserver) ObserveStep(st engine.Step) {
	now := time.Now()
	c := o.clk
	c.l.engine += now.Sub(c.last)
	c.l.intervals++
	if st.AllocW != nil && st.Index > 0 {
		c.l.picInvokes += int64(len(st.Sim.Islands))
		for _, ir := range st.Sim.Islands {
			if ir.Transitioned {
				c.l.picTransitions++
			}
		}
	}
	if st.GPMInvoked && len(st.GPMObs) > 0 {
		c.l.gpmEpochs++
	}
	if o.replay {
		o.replayStep(st)
	}
	end := time.Now()
	c.l.excluded += end.Sub(now)
	c.last = end
}

func (o *spanObserver) replayStep(st engine.Step) {
	l := o.clk.l
	if o.mgr != nil && st.GPMInvoked && len(st.GPMObs) > 0 {
		obs := append([]gpm.IslandObs(nil), st.GPMObs...)
		t := time.Now()
		alloc := o.mgr.Provision(obs)
		d := time.Since(t)
		if l.provision[o.policy] == nil {
			l.provision[o.policy] = &acc{}
		}
		l.provision[o.policy].add(d)
		for i := range alloc {
			if i >= len(st.AllocW) || alloc[i] != st.AllocW[i] {
				o.fail(fmt.Errorf("%s: GPM replay at interval %d gave %v, run provisioned %v", o.p.name, st.Index, alloc, st.AllocW))
				break
			}
		}
	}
	if o.planner != nil {
		const period = 20
		if st.Index%period == 0 && st.Index >= period {
			obs := make([]maxbips.IslandObs, len(o.accPow))
			for i := range obs {
				obs[i] = maxbips.IslandObs{Level: o.prevLvl[i], PowerW: o.accPow[i] / period, BIPS: o.accBIPS[i] / period}
			}
			t := time.Now()
			lvls := o.planner.Choose(o.budgetW, obs)
			l.plan.add(time.Since(t))
			for i, lvl := range lvls {
				if st.Sim.Islands[i].Level != lvl {
					o.fail(fmt.Errorf("%s: MaxBIPS replay at interval %d chose %v, island %d ran level %d", o.p.name, st.Index, lvls, i, st.Sim.Islands[i].Level))
					break
				}
			}
		}
		if st.Index%period == 0 {
			for i := range o.accPow {
				o.accPow[i], o.accBIPS[i] = 0, 0
			}
		}
		for i, ir := range st.Sim.Islands {
			o.accPow[i] += ir.PowerW
			o.accBIPS[i] += ir.BIPS
			o.prevLvl[i] = ir.Level
		}
	}
}

// ObserveEpoch implements engine.Observer. Earlier observers' epoch work
// (digest folding, invariant checks) belongs to the engine span.
func (o *spanObserver) ObserveEpoch(engine.Epoch) { o.closeEngine() }

// RunEnd implements engine.Observer; the session's finish is engine work.
func (o *spanObserver) RunEnd(*engine.Summary) { o.closeEngine() }

func (o *spanObserver) closeEngine() {
	now := time.Now()
	o.clk.l.engine += now.Sub(o.clk.last)
	o.clk.last = now
}

// spanTolerance bounds trace.unattributed_pct where an independent
// measurement of the stepped time exists (the slowest group against
// Farm.Run on the fleet route): the four spans plus the tracer's excluded
// replay work must cover that measurement to within this share.
const spanTolerance = 0.03

// chipLayers records the chip-step part of the ledger from merged traced
// layers. Shares are of the attributed step time (the four spans plus, on
// the resilient route, snapshot encode and restore). sim.sample.ns is per
// chip-interval sampled (a shared sampler samples once per group round);
// the other per-layer times are per chip-interval stepped.
func (r *run) chipLayers(l *layers, cache cacheCounts) {
	total := float64(l.spans() + l.encode.d + l.restore.d)
	n := float64(l.intervals)
	set := func(name, unit string, v float64, count int64) { r.layer.set(name, unit, v, int(count)) }
	set("sim.sample.ns", "ns", ratio(float64(l.sample), float64(l.fresh)), l.fresh)
	set("sim.sample.share", "ratio", ratio(float64(l.sample), total), l.intervals)
	set("sim.compute.ns", "ns", ratio(float64(l.compute), n), l.intervals)
	set("sim.compute.share", "ratio", ratio(float64(l.compute), total), l.intervals)
	set("sim.step_ns", "ns", l.step8.meanNs(), l.step8.n)
	set("core.ns", "ns", ratio(float64(l.core), n), l.intervals)
	set("core.share", "ratio", ratio(float64(l.core), total), l.intervals)
	set("engine.ns", "ns", ratio(float64(l.engine), n), l.intervals)
	set("engine.share", "ratio", ratio(float64(l.engine), total), l.intervals)
	set("pic.invokes", "count", float64(l.picInvokes), l.picInvokes)
	set("pic.transitions_per_invoke", "ratio", ratio(float64(l.picTransitions), float64(l.picInvokes)), l.picInvokes)
	set("gpm.epochs", "count", float64(l.gpmEpochs), l.gpmEpochs)
	for policy, a := range l.provision {
		set("gpm."+policy+".provision_ns", "ns", a.meanNs(), a.n)
	}
	set("maxbips.plan_ns", "ns", l.plan.meanNs(), l.plan.n)
	set("cache.l1d_miss_rate", "ratio", ratio(float64(cache.l1dMiss), float64(cache.l1dAcc)), 1)
	set("cache.l2_miss_rate", "ratio", ratio(float64(cache.l2Miss), float64(cache.l2Acc)), 1)
}

// cacheCounts sums sampler cache counters over traced chips.
type cacheCounts struct{ l1dAcc, l1dMiss, l2Acc, l2Miss uint64 }

func (c *cacheCounts) add(s *sim.Sampler) {
	st := s.CacheStats()
	c.l1dAcc += st.L1D.Accesses
	c.l1dMiss += st.L1D.Misses
	c.l2Acc += st.L2.Accesses
	c.l2Miss += st.L2.Misses
}

// unattributed records the share of the measured time the spans (and the
// tracer's excluded work) do not cover, failing the run's correctness when
// enforce is set and it exceeds spanTolerance.
func (r *run) unattributed(covered, measured time.Duration, enforce bool) {
	u := ratio(float64(measured-covered), float64(measured))
	r.layer.set("trace.unattributed_pct", "%", 100*u, 1)
	if enforce && (u > spanTolerance || u < -spanTolerance) {
		r.checks = append(r.checks, fmt.Errorf("layer spans cover %.2f%% of the measured time; tolerance is ±%.0f%%",
			100*(1-u), 100*spanTolerance))
	}
}

// overhead records the traced rounds' slowdown against the untraced
// rounds of the same run.
func (r *run) overhead(traced, untraced []float64) {
	r.layer.set("trace.overhead_pct", "%", 100*(ratio(median(traced), median(untraced))-1), len(traced)+len(untraced))
}
