package serve

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/sim"
)

// runObservers is the observer set one served run carries beside the
// spec's own suite and telemetry: the golden digest recorder (the
// response's verification payload) and the epoch recorder (the response's
// data payload).
type runObservers struct {
	golden *check.Golden
	rec    *epochRecorder
	all    []engine.Observer
}

func observersFor(req Request) runObservers {
	golden := check.NewGolden(req.Scenario)
	rec := &epochRecorder{}
	return runObservers{golden: golden, rec: rec, all: []engine.Observer{golden, rec.observer()}}
}

// finalize turns one finished session into a rendered result, failing on
// invariant violations — a served run that breaks the paper's invariants is
// a 500, never a silently wrong 200.
func finalize(j *job, sum engine.Summary, suite *check.Suite, obs runObservers) (*result, error) {
	if err := suite.Err(); err != nil {
		return nil, fmt.Errorf("serve: %s seed %d violated invariants: %w", j.req.Scenario, j.req.Seed, err)
	}
	return buildResult(j.req, sum, obs.rec, obs.golden.Trace())
}

// execute runs one worker pick as one farm group — one shared trace sampler,
// member chips stepped in lockstep — and completes every job in it. A
// member chip is bit-identical to a sim.New chip (proven against the goldens
// in internal/check), so the size of the pick a job rides in never changes
// its response bytes. A build error fails only this pick's jobs; a one-job
// pick's error names its scenario and seed.
func (s *Server) execute(batch []*job) {
	obs := make([]runObservers, len(batch))
	suites := make([]*check.Suite, len(batch))
	specs := make([]farm.ChipSpec, len(batch))
	for i, j := range batch {
		i, j := i, j
		obs[i] = observersFor(j.req)
		specs[i] = farm.ChipSpec{
			Config: j.sc.BuildConfig(j.req.Seed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, suite, err := j.sc.BuildOn(cmp, j.req.Seed, obs[i].all...)
				if err != nil {
					return nil, err
				}
				suites[i] = suite
				return sess, nil
			},
		}
	}
	what := "farm batch"
	if len(batch) == 1 {
		what = fmt.Sprintf("%s seed %d", batch[0].req.Scenario, batch[0].req.Seed)
	}
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		err = fmt.Errorf("serve: building %s: %w", what, err)
	}
	var sums []engine.Summary
	if err == nil {
		// One group, one sampler: the inner lockstep rounds are the
		// parallelism-free unit, so a single pool worker is exact and cheap.
		if sums, err = f.Run(engine.Pool{Workers: 1}, nil); err != nil {
			err = fmt.Errorf("serve: running %s: %w", what, err)
		}
	}
	for i, j := range batch {
		if err != nil {
			s.finish(j, nil, err)
			continue
		}
		res, ferr := finalize(j, sums[i], suites[i], obs[i])
		s.finish(j, res, ferr)
	}
}
