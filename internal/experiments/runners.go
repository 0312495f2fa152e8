package experiments

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/workload"
)

// runSummary is the engine's run summary.
type runSummary = engine.Summary

// spec returns the run spec a harness run starts from: mix with the
// six-epoch warm-up most figures use. Callers set the budget, windows,
// policy and baseline kind on the copy they run.
func spec(mix workload.Mix) check.Scenario {
	return check.Scenario{Mix: func() workload.Mix { return mix }, WarmEpochs: 6}
}

// unmanaged and maxBIPS turn a spec into the matching baseline over the
// same chip and window (same seed, same phases), so instruction counts are
// directly comparable.
func unmanaged(sc check.Scenario) check.Scenario { sc.Unmanaged = true; return sc }
func maxBIPS(sc check.Scenario) check.Scenario   { sc.MaxBIPS = true; return sc }

// label names sc for the harness's telemetry and error reports by kind and
// absolute budget ("cpm-24.00W", "maxbips-24.00W", "unmanaged") and attaches
// Options.Metrics, so repeated runs under one label accumulate.
func (o Options) label(sc check.Scenario) (check.Scenario, error) {
	sc.Name = "unmanaged"
	if !sc.Unmanaged {
		cal, err := sc.Calibration(o.seed())
		if err != nil {
			return sc, err
		}
		sc.Name = fmt.Sprintf("cpm-%.2fW", cal.BudgetW(sc.BudgetFrac))
		if sc.MaxBIPS {
			sc.Name = fmt.Sprintf("maxbips-%.2fW", cal.BudgetW(sc.BudgetFrac))
		}
	}
	sc.Metrics = o.Metrics
	return sc, nil
}

// verdict fails a finished run under Options.Check when it violated the
// invariant suite it carries.
func (o Options) verdict(sc check.Scenario, suite *check.Suite) error {
	if !o.Check {
		return nil
	}
	if err := suite.Err(); err != nil {
		return fmt.Errorf("%s run: %w", sc.Name, err)
	}
	return nil
}

// run executes one scenario at the harness seed with extra observers
// attached, for the harnesses that record a single run as it steps.
func (o Options) run(sc check.Scenario, extra ...engine.Observer) (runSummary, error) {
	sc, err := o.label(sc)
	if err != nil {
		return runSummary{}, err
	}
	sum, suite, err := sc.Run(o.seed(), extra...)
	if err != nil {
		return runSummary{}, err
	}
	return sum, o.verdict(sc, suite)
}

// runAll executes a harness's scenarios as one batch at the harness seed
// (check.RunBatch): runs that share a workload key share one sampler, so a
// figure's budget points and baselines pay the sampling cost of one run.
// Under Options.Check the first run in layout order that violated its
// invariant suite fails the harness.
func (o Options) runAll(scs []check.Scenario) (results, error) {
	labelled := make([]check.Scenario, len(scs))
	for i, sc := range scs {
		var err error
		if labelled[i], err = o.label(sc); err != nil {
			return nil, err
		}
	}
	sums, suites, err := check.RunBatch(labelled, o.seed(), nil, nil)
	if err != nil {
		return nil, err
	}
	for i, sc := range labelled {
		if err := o.verdict(sc, suites[i]); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// results hands out a batch's summaries in the order its scenarios were
// laid out.
type results []runSummary

func (r *results) next() runSummary {
	s := (*r)[0]
	*r = (*r)[1:]
	return s
}

// degradation returns the throughput loss of run vs baseline as a fraction.
func degradation(run, baseline runSummary) float64 {
	return engine.Degradation(run, baseline)
}
