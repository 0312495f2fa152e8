package serve

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
)

// execute runs one job through the scenario's one constructor and renders
// its result. Beside the spec's own suite and telemetry, the run carries
// the golden digest recorder (the response's verification payload) and the
// epoch recorder (its data payload). A run that breaks the paper's
// invariants is a 500, never a silently wrong 200, and a run that panics
// fails only its own job: the panic is recovered into the job's error, so
// the server keeps serving.
func execute(j *job) (res *result, err error) {
	what := fmt.Sprintf("%s seed %d", j.req.Scenario, j.req.Seed)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: %s panicked: %v", what, r)
		}
	}()
	golden := check.NewGolden(j.req.Scenario)
	rec := &epochRecorder{}
	sess, suite, err := j.sc.Build(j.req.Seed, golden, rec.observer())
	if err != nil {
		return nil, fmt.Errorf("serve: building %s: %w", what, err)
	}
	sum := sess.Run()
	if err := suite.Err(); err != nil {
		return nil, fmt.Errorf("serve: %s violated invariants: %w", what, err)
	}
	return buildResult(j.req, sum, rec, golden.Trace())
}
