package experiments

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
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

// run executes sc at the harness seed and summarises its measurement
// window. The chip samples its islands in parallel: harnesses run one
// session at a time, so it is their parallelism. Under Options.Check an
// invariant violation fails the run; with Options.Metrics the run records
// telemetry labelled by kind and absolute budget ("cpm-24.00W",
// "maxbips-24.00W", "unmanaged").
func (o Options) run(sc check.Scenario, extra ...engine.Observer) (runSummary, error) {
	seed := o.seed()
	sc.Name = "unmanaged"
	if !sc.Unmanaged {
		cal, err := sc.Calibration(seed)
		if err != nil {
			return runSummary{}, err
		}
		sc.Name = fmt.Sprintf("cpm-%.2fW", cal.BudgetW(sc.BudgetFrac))
		if sc.MaxBIPS {
			sc.Name = fmt.Sprintf("maxbips-%.2fW", cal.BudgetW(sc.BudgetFrac))
		}
	}
	sc.Metrics = o.Metrics
	cfg := sc.BuildConfig(seed)
	cfg.Parallel = true
	cmp, err := sim.New(cfg)
	if err != nil {
		return runSummary{}, err
	}
	sess, suite, err := sc.BuildOn(cmp, seed, extra...)
	if err != nil {
		return runSummary{}, err
	}
	sum := sess.Run()
	if o.Check {
		if err := suite.Err(); err != nil {
			return sum, fmt.Errorf("%s run: %w", sc.Name, err)
		}
	}
	return sum, nil
}

// degradation returns the throughput loss of run vs baseline as a fraction.
func degradation(run, baseline runSummary) float64 {
	return engine.Degradation(run, baseline)
}
