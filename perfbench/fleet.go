package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
)

// Fleet shape: fleetGroups shared-sampler groups of fleetGroupSize managed
// chips. Group 0 runs at the golden seed and carries the Mix-1 canonical
// scenarios at canonical windows as digest-checked members; the others
// run at seeds drawn from the workload seed.
const (
	fleetGroups    = 2
	fleetGroupSize = 512
)

// fleetKinds are the member controllers: every CPM scenario kind plus
// MaxBIPS, all on the Mix-1 chip so a group shares one sampler.
var fleetKinds = []string{
	"cpm-default", "mpc-gpm", "cache-aware", "variation-aware",
	"adaptive-pic", "fault-noise", "maxbips",
}

// fleetMembers lists the fleet's members, group by group. Kinds cycle
// through fleetKinds; each group's budget fractions are one seeded draw per
// equal stratum of (0.5, 0.95], dealt to members in seeded order, so every
// kind sees the whole budget range and the fleet-wide means barely depend
// on the seed.
func fleetMembers(seed uint64) ([]point, error) {
	kinds := make([]check.Scenario, len(fleetKinds))
	for i, name := range fleetKinds {
		sc, err := check.ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = sc
	}
	r := stats.NewRand(stats.DeriveSeed(seed, 0xf1ee7))
	seeds := append([]uint64{goldenSeed}, derivedSeeds(seed, fleetGroups-1)...)
	var out []point
	for g, s := range seeds {
		n := fleetGroupSize
		if g == 0 {
			for _, sc := range mix1Shared() {
				out = append(out, point{name: sc.Name, sc: sc, seed: goldenSeed, golden: true})
				n--
			}
		}
		fracs := budgetFracs(r, n)
		deal := make([]int, n)
		r.Perm(deal)
		for i := 0; i < n; i++ {
			p := sweepPoint(kinds[i%len(kinds)], s, fracs[deal[i]])
			p.name = fmt.Sprintf("%s#%d", p.name, i)
			out = append(out, p)
		}
	}
	return out, nil
}

// fleet is one constructed, not yet run, repetition of the fleet.
type fleet struct {
	members []point
	recs    []*record
	suites  []*check.Suite
	// Exactly one of f (farm.New) and groups (traced rebuild over
	// engine.NewFarmRunner) is set.
	f        *farm.Farm
	groups   []tracedGroup
	samplers []*sim.Sampler
}

// tracedGroup is one shared-sampler group rebuilt with a timed source.
type tracedGroup struct {
	fr  *engine.FarmRunner
	clk *clock
}

// buildFleet constructs a repetition. Untraced it is farm.New; traced it
// rebuilds each group the way farm does (one sampler per workload key,
// record-driven members) over a timed sampler, run by engine.FarmRunner.
func (r *run) buildFleet(members []point, traced bool) (*fleet, error) {
	fl := &fleet{members: members, recs: make([]*record, len(members)), suites: make([]*check.Suite, len(members))}
	session := func(i int, cmp *sim.CMP, extra ...engine.Observer) (*engine.Session, error) {
		p := members[i]
		fl.recs[i] = newRecord(p)
		sess, suite, err := p.sc.BuildOn(cmp, p.seed, append(fl.recs[i].observers(), extra...)...)
		fl.suites[i] = suite
		return sess, err
	}
	if !traced {
		specs := make([]farm.ChipSpec, len(members))
		for i, p := range members {
			i := i
			specs[i] = farm.ChipSpec{
				Config:     p.sc.BuildConfig(p.seed),
				NewSession: func(cmp *sim.CMP) (*engine.Session, error) { return session(i, cmp) },
			}
		}
		f, err := farm.New(specs, farm.Options{})
		if err != nil {
			return nil, err
		}
		if f.NumGroups() != fleetGroups {
			return nil, fmt.Errorf("fleet built %d sampler groups, want %d", f.NumGroups(), fleetGroups)
		}
		fl.f = f
		return fl, nil
	}
	var order []farm.WorkloadKey
	byKey := map[farm.WorkloadKey][]int{}
	for i, p := range members {
		k := farm.KeyOf(p.sc.BuildConfig(p.seed))
		if byKey[k] == nil {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	for _, k := range order {
		idxs := byKey[k]
		first := members[idxs[0]]
		sampler, err := sim.NewSampler(first.sc.BuildConfig(first.seed))
		if err != nil {
			return nil, err
		}
		clk := newClock()
		src := &timedSource{s: sampler, clk: clk}
		var sessions []*engine.Session
		for _, i := range idxs {
			p := members[i]
			cmp, err := tracedChip(p.sc.BuildConfig(p.seed), src, false)
			if err != nil {
				return nil, err
			}
			sess, err := session(i, cmp, newSpanObserver(clk, p, cmp, true, r.gate.fail))
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, sess)
		}
		fr, err := engine.NewFarmRunner(sessions)
		if err != nil {
			return nil, err
		}
		fl.groups = append(fl.groups, tracedGroup{fr: fr, clk: clk})
		fl.samplers = append(fl.samplers, sampler)
	}
	return fl, nil
}

// run runs the fleet and returns its wall time, recording each member's
// completion latency (run start to the progress report that counted it).
func (fl *fleet) run(lat *samples) (time.Duration, error) {
	var mu sync.Mutex
	seen := 0
	t0 := time.Now()
	progress := func(done int) {
		mu.Lock()
		defer mu.Unlock()
		for ; seen < done; seen++ {
			lat.addDur(time.Since(t0), time.Millisecond)
		}
	}
	pool := engine.Pool{Workers: workers}
	if fl.f != nil {
		_, err := fl.f.Run(pool, func(done, _ int) { progress(done) })
		return time.Since(t0), err
	}
	var fleetDone int
	err := pool.Run(len(fl.groups), func(g int) error {
		prev := 0
		fl.groups[g].clk.start(time.Now())
		fl.groups[g].fr.Run(func(done, _ int) {
			mu.Lock()
			fleetDone += done - prev
			d := fleetDone
			mu.Unlock()
			prev = done
			progress(d)
		})
		return nil
	})
	return time.Since(t0), err
}

// runFleet drives the fleet workload: repetitions of the whole fleet, each
// built afresh (sessions are single-use; the first build is set-up, later
// ones are outside the timed spans) and run until --seconds of fleet
// running have accumulated. A traced invocation alternates untraced and
// traced repetitions.
func runFleet(r *run) error {
	members, err := fleetMembers(r.opts.seed)
	if err != nil {
		return err
	}
	perRep, rounds := 0, 0
	for _, p := range members {
		perRep += p.intervals()
		rounds = max(rounds, p.intervals())
	}
	r.zeroLayers()
	if err := r.calibrate(members); err != nil {
		return err
	}
	fl, err := r.buildFleet(members, false)
	if err != nil {
		return err
	}
	if r.setupComplete() {
		return nil
	}
	var lat samples
	var model simTotals
	var untracedWall, tracedWall []float64
	var running float64
	merged := newLayers()
	var cache cacheCounts
	var critical, tracedRun time.Duration
	for rep := 0; ; rep++ {
		traced := r.opts.trace && rep%2 == 1
		if rep > 0 {
			settle() // drop the previous fleet before building the next
			if fl, err = r.buildFleet(members, traced); err != nil {
				return err
			}
		}
		settle()
		wall, err := fl.run(&lat)
		if err != nil {
			return err
		}
		running += wall.Seconds()
		r.attempted += len(members)
		r.logRound(rep, traced, wall, perRep)
		for i, p := range members {
			r.gate.judge(p, fl.recs[i].golden.Trace(), nil, suiteErr(fl.suites[i]), fl.recs[i].done)
			if rep == 0 {
				model.addRecord(p, fl.recs[i])
			}
		}
		if traced {
			tracedWall = append(tracedWall, wall.Seconds())
			tracedRun += wall
			var slowest time.Duration
			for i, g := range fl.groups {
				merged.merge(g.clk.l)
				slowest = max(slowest, g.clk.l.spans()+g.clk.l.excluded)
				cache.add(fl.samplers[i])
			}
			critical += slowest
		} else {
			untracedWall = append(untracedWall, wall.Seconds())
		}
		if running >= r.opts.seconds && (!r.opts.trace || len(tracedWall) > 0) {
			break
		}
	}
	if r.opts.trace {
		r.chipLayers(merged, cache)
		r.layer.set("pool.idle_share", "ratio",
			1-ratio(float64(merged.spans()+merged.excluded), float64(workers)*float64(tracedRun)), len(tracedWall))
		r.layer.set("farm.round_ns", "ns", ratio(float64(tracedRun), float64(rounds*len(tracedWall))), rounds*len(tracedWall))
		r.layer.set("farm.chips_per_sampler", "count", float64(len(members))/fleetGroups, fleetGroups)
		r.unattributed(critical, tracedRun, true)
		r.overhead(tracedWall, untracedWall)
		r.goLayer(float64(perRep * (len(tracedWall) + len(untracedWall))))
		return nil
	}
	r.e2e.set("chip_intervals_per_s", "1/s", medianRate(perRep, untracedWall), len(untracedWall))
	model.metrics(r.e2e)
	if err := r.e2e.setPct("cold_p50_ms", &lat, 0.50); err != nil {
		return err
	}
	return r.e2e.setPct("cold_p90_ms", &lat, 0.90)
}
