package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// goldenDir holds the pinned traces, relative to the repository root the
// benchmark runs from.
var goldenDir = filepath.Join("internal", "check", "testdata", "golden")

// gate is the correctness check every point, fleet member and request
// passes through: golden-seed canonical runs must reproduce the pinned
// digests, and every derived-seed run must reproduce the digests of its
// first execution in this process (the same inputs, so the same outputs).
// Nothing is retried; a failure is counted and the run continues.
type gate struct {
	pinned map[string]check.Trace

	mu    sync.Mutex
	first map[string]check.Trace
	errs  []error
}

func newGate() (*gate, error) {
	g := &gate{pinned: map[string]check.Trace{}, first: map[string]check.Trace{}}
	for _, name := range check.ScenarioNames() {
		tr, err := check.LoadTrace(filepath.Join(goldenDir, name+".json"))
		if err != nil {
			return nil, fmt.Errorf("loading pinned golden: %w", err)
		}
		g.pinned[name] = tr
	}
	return g, nil
}

// judge counts a failure unless the run is correct. runErr is the build or
// run error, suiteErr the run's invariant violations, tr its golden trace
// and done whether its session finished.
func (g *gate) judge(p point, tr check.Trace, runErr, suiteErr error, done bool) {
	err := func() error {
		if runErr != nil {
			return runErr
		}
		if !done {
			return errors.New("session did not finish")
		}
		if suiteErr != nil {
			return fmt.Errorf("invariant violations: %w", suiteErr)
		}
		if p.golden {
			return tr.Diff(g.pinned[p.sc.Name])
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		ref, seen := g.first[p.name]
		if !seen {
			g.first[p.name] = tr
			return nil
		}
		return tr.Diff(ref)
	}()
	if err != nil {
		g.fail(fmt.Errorf("%s: %w", p.name, err))
	}
}

func suiteErr(s *check.Suite) error {
	if s == nil {
		return nil
	}
	return s.Err()
}

// fail records a failure that is not tied to a point verdict.
func (g *gate) fail(err error) {
	g.mu.Lock()
	g.errs = append(g.errs, err)
	g.mu.Unlock()
}

// failures returns the number of failures so far and the first few.
func (g *gate) failures() (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	shown := g.errs
	if len(shown) > 5 {
		shown = shown[:5]
	}
	return len(g.errs), errors.Join(shown...)
}

// record observes one run: its golden trace and the per-epoch budget
// tracking error of a managed run.
type record struct {
	golden   *check.Golden
	trackSum float64
	epochs   int
	bips     float64
	done     bool
	end      time.Time
}

func newRecord(p point) *record { return &record{golden: check.NewGolden(p.sc.Name)} }

// observers returns the observers to attach to the run's session.
func (r *record) observers() []engine.Observer {
	return []engine.Observer{r.golden, engine.Funcs{
		OnRunStart: func(engine.RunInfo) { r.trackSum, r.epochs = 0, 0 },
		OnEpoch: func(e engine.Epoch) {
			r.trackSum += math.Abs(e.MeanPowerW-e.BudgetW) / e.BudgetW
			r.epochs++
		},
		OnRunEnd: func(sum *engine.Summary) {
			r.bips, r.done, r.end = sum.MeanBIPS, true, time.Now()
		},
	}}
}

// Snapshot and Restore carry the tracking accumulators across a sweepd
// migration: Session.Restore re-fires RunStart, which resets them.
func (r *record) Snapshot(e *snapshot.Encoder) {
	e.F64(r.trackSum)
	e.Int(r.epochs)
}

func (r *record) Restore(d *snapshot.Decoder) error {
	r.trackSum, r.epochs = d.F64(), d.Int()
	return d.Err()
}

// simTotals accumulates the modelled-design metrics over finished runs.
type simTotals struct {
	bips      []float64 // mean BIPS per run
	trackErrs []float64 // mean |power-budget|/budget per CPM-managed run
}

func (s *simTotals) add(managed bool, bips, trackErr float64) {
	s.bips = append(s.bips, bips)
	if managed {
		s.trackErrs = append(s.trackErrs, trackErr)
	}
}

func (s *simTotals) addRecord(p point, r *record) {
	s.add(!p.sc.MaxBIPS, r.bips, ratio(r.trackSum, float64(r.epochs)))
}

func (s *simTotals) metrics(m *metricSet) {
	m.set("sim_mean_bips", "BIPS", mean(s.bips), len(s.bips))
	m.set("sim_track_err_pct", "%", 100*mean(s.trackErrs), len(s.trackErrs))
}
