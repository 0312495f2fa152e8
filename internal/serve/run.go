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

// executeScalar runs one job as a plain single-chip session.
func (s *Server) executeScalar(j *job) (*result, error) {
	obs := observersFor(j.req)
	sess, suite, err := j.sc.Build(j.req.Seed, obs.all...)
	if err != nil {
		return nil, fmt.Errorf("serve: building %s seed %d: %w", j.req.Scenario, j.req.Seed, err)
	}
	return finalize(j, sess.Run(), suite, obs)
}

// executeFarm runs a batch of workload-compatible jobs as one farm group:
// one shared trace sampler, member chips stepped in lockstep. The farm path
// is golden-equivalent to the scalar path (proven in internal/check), so
// which path a job happens to ride never changes its response bytes.
func (s *Server) executeFarm(batch []*job) {
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
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		// Group construction failed as a whole; fail every member.
		for _, j := range batch {
			s.m.runsFarm.Inc()
			s.finish(j, nil, fmt.Errorf("serve: building farm batch: %w", err))
		}
		return
	}
	// One group, one sampler: the inner lockstep rounds are the
	// parallelism-free unit, so a single pool worker is exact and cheap.
	sums, err := f.Run(engine.Pool{Workers: 1}, nil)
	for i, j := range batch {
		s.m.runsFarm.Inc()
		if err != nil {
			s.finish(j, nil, fmt.Errorf("serve: running farm batch: %w", err))
			continue
		}
		res, ferr := finalize(j, sums[i], suites[i], obs[i])
		s.finish(j, res, ferr)
	}
}
