// Command cpmsweep runs managed-vs-baseline parameter sweeps and emits CSV,
// the workhorse behind custom variants of Figures 11–17.
//
// By default the sweep routes every point — the unmanaged baseline plus a
// CPM and a MaxBIPS run per budget — through one internal/farm fleet: the
// points share a workload identity, so they share one trace sampler and
// each pays only its cheap frequency-dependent half, stepped on one worker.
// -resilient routes the points through the crash-safe sweepd coordinator
// instead, -workers of them at a time (-workers, like -kill-every and
// -ckpt-every, is refused without -resilient). Both routes produce
// byte-identical CSV, at any -workers on -resilient (results are emitted in
// budget order). Every point is a check.Scenario built by its one
// constructor; the routes differ only in how the built sessions are
// scheduled. Progress and ETA go to stderr; stdout carries only the CSV.
//
// Usage:
//
//	cpmsweep -mix mix1 -budgets 0.5,0.6,0.7,0.8,0.9 -epochs 16
//	cpmsweep -mix mix3 -policy variation -budgets 0.8 -resilient -workers 4
//
// Columns: budget_frac, budget_w, ours_power_w, ours_degradation,
// maxbips_power_w, maxbips_degradation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/diag"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/sweepd"
	"github.com/cpm-sim/cpm/internal/workload"
)

// parseSweepCLI parses and validates argv (without the program name),
// returning the sweep options. Every reject path is an error, not an exit,
// so the validation is testable.
func parseSweepCLI(argv []string, stderr io.Writer) (sweepOptions, error) {
	fs := flag.NewFlagSet("cpmsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixName := fs.String("mix", "mix1", "application mix: mix1, mix2, mix3, mix3x2, thermal")
	policy := fs.String("policy", "performance", "GPM policy: performance, equal, thermal, variation, mpc, cache")
	adaptive := fs.Bool("adaptive", false, "run the PICs with the adaptive-gain estimator (RLS plant-gain tracking, seeded from calibration)")
	budgets := fs.String("budgets", "0.5,0.6,0.7,0.8,0.9,0.95", "comma-separated budget fractions of required power")
	seed := fs.Uint64("seed", 1, "simulation seed (non-zero)")
	warm := fs.Int("warm", 6, "warm-up GPM epochs")
	epochs := fs.Int("epochs", 16, "measured GPM epochs")
	workers := fs.Int("workers", 0, "concurrent points (requires -resilient; 0 = GOMAXPROCS); the default farm route steps every point in one sampler group on one worker")
	checked := fs.Bool("check", false, "fail the sweep on any invariant violation (every run carries the invariant suite)")
	warmstart := fs.Bool("warmstart", false, "warm the chip once unmanaged, snapshot it, and fork every budget point from the snapshot (skips per-point warm-up; trajectories differ slightly from the default per-point managed warm-up)")
	resilient := fs.Bool("resilient", false, "route points through the crash-safe sweepd coordinator: workers checkpoint at interval boundaries and killed or panicked workers migrate their point to a survivor (identical CSV)")
	killEvery := fs.Int("kill-every", 0, "inject a deterministic worker kill each time a point first completes an interval divisible by N (requires -resilient; 0 = off)")
	ckptEvery := fs.Int("ckpt-every", 0, "checkpoint cadence in intervals for -resilient workers (0 = every 20)")
	dflags := diag.AddFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return sweepOptions{}, err
	}
	if *seed == 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -seed must be non-zero (0 is the unseeded sentinel)")
	}
	if *warm < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -warm must be >= 0, got %d", *warm)
	}
	if *epochs <= 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -epochs must be > 0, got %d", *epochs)
	}
	if *workers < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -workers must be >= 0, got %d", *workers)
	}
	if *killEvery < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -kill-every must be >= 0, got %d", *killEvery)
	}
	if *ckptEvery < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -ckpt-every must be >= 0, got %d", *ckptEvery)
	}
	if !*resilient && (*workers > 0 || *killEvery > 0 || *ckptEvery > 0) {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -workers, -kill-every and -ckpt-every require -resilient")
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return sweepOptions{}, err
	}
	fracs, err := parseBudgets(*budgets)
	if err != nil {
		return sweepOptions{}, err
	}
	if _, err := check.PolicyByName(*policy); err != nil { // validate the name before calibrating
		return sweepOptions{}, fmt.Errorf("cpmsweep: -policy: %w", err)
	}
	return sweepOptions{
		Mix:       mix,
		Policy:    *policy,
		Adaptive:  *adaptive,
		Fracs:     fracs,
		Seed:      *seed,
		Warm:      *warm,
		Epochs:    *epochs,
		Workers:   *workers,
		Check:     *checked,
		WarmStart: *warmstart,
		Resilient: *resilient,
		KillEvery: *killEvery,
		CkptEvery: *ckptEvery,
		Diag:      dflags,
	}, nil
}

func main() {
	o, err := parseSweepCLI(os.Args[1:], os.Stderr)
	exitOn(err)
	stopTrace, err := o.Diag.Start(os.Stderr)
	exitOn(err)
	o.Metrics = o.Diag.Registry()
	if err := sweep(o, os.Stdout, os.Stderr); err != nil {
		stopTrace()
		exitOn(err)
	}
	stopTrace()
	exitOn(o.Diag.WriteMetrics(o.Metrics, os.Stdout))
}

// sweepOptions parameterizes one sweep.
type sweepOptions struct {
	Mix    workload.Mix
	Policy string
	// Adaptive runs every CPM point's PICs with the adaptive-gain
	// estimator, seeded from the sweep's calibrated plant gain.
	Adaptive bool
	Fracs    []float64
	Seed     uint64
	Warm     int
	Epochs   int
	// Workers is the number of concurrent points on the resilient route
	// (0 = GOMAXPROCS). The farm route steps its one sampler group on one
	// worker whatever the count.
	Workers int
	// Check fails the sweep on any invariant violation; every run carries
	// the suite either way.
	Check bool
	// WarmStart warms one unmanaged chip per chip configuration, snapshots
	// it, and forks every budget point from the snapshot with a zero
	// warm-up window — the warm-up cost is paid once instead of once per
	// (budget, controller) pair. Off by default: the forked warm-up is
	// unmanaged, so the measured trajectories (and CSV) differ slightly
	// from the default per-point managed warm-up.
	WarmStart bool
	// Resilient routes every point through the sweepd coordinator:
	// independent sessions checkpointed at interval boundaries, with dead
	// workers' points migrated to survivors. CSV is byte-identical to the
	// other routes.
	Resilient bool
	// KillEvery injects a deterministic worker kill each time a point
	// first completes an interval divisible by KillEvery (0 = off;
	// requires Resilient). Used to prove crash-equivalence.
	KillEvery int
	// CkptEvery is the resilient route's checkpoint cadence in intervals
	// (0 = every 20).
	CkptEvery int
	// Diag holds the shared diagnostics flags (-metrics, -pprof, -trace).
	Diag *diag.Flags
	// Metrics, when non-nil, attaches a telemetry observer to every run.
	// The registry is race-safe: budget points record into it concurrently
	// from the pool, and it may be scraped while the sweep runs.
	Metrics *metrics.Registry
}

// sweep calibrates once, runs every point — the shared unmanaged baseline
// plus a CPM and a MaxBIPS run per budget — through the farm route (or the
// resilient route), and emits CSV in budget order.
func sweep(o sweepOptions, out, logw io.Writer) error {
	pts, err := sweepPoints(o)
	if err != nil {
		return err
	}
	cal, err := pts[0].Calibration(o.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "calibrated %s: unmanaged %.1f W, plant gain %.3f\n",
		o.Mix.Name, cal.UnmanagedPowerW, cal.PlantGain)

	var samplerState []byte
	if o.WarmStart {
		if samplerState, err = warmStart(pts, o.Seed, !o.Resilient); err != nil {
			return err
		}
		fmt.Fprintf(logw, "warm-started: %d warm epochs simulated once, forked across %d budget points\n",
			o.Warm, len(o.Fracs))
	}

	var sums []engine.Summary
	if o.Resilient {
		sums, err = runResilient(pts, o, logw)
	} else {
		sums, err = runFarm(pts, o, samplerState, logw)
	}
	if err != nil {
		return err
	}
	writeCSV(out, o.Fracs, cal, sums)
	return nil
}

// sweepPoints lays out a sweep's points: 0 is the unmanaged baseline, then
// (cpm, maxbips) per budget fraction.
func sweepPoints(o sweepOptions) ([]check.Scenario, error) {
	policy, err := check.PolicyByName(o.Policy)
	if err != nil {
		return nil, err
	}
	base := check.Scenario{
		Name: "unmanaged", Mix: func() workload.Mix { return o.Mix }, Unmanaged: true,
		Policy: policy, Adaptive: o.Adaptive,
		WarmEpochs: o.Warm, MeasureEpochs: o.Epochs, Metrics: o.Metrics,
	}
	pts := []check.Scenario{base}
	for _, frac := range o.Fracs {
		ours := base
		ours.Name, ours.Unmanaged, ours.BudgetFrac = fmt.Sprintf("cpm-%.2f", frac), false, frac
		mb := ours
		mb.Name, mb.MaxBIPS = fmt.Sprintf("maxbips-%.2f", frac), true
		pts = append(pts, ours, mb)
	}
	return pts, nil
}

// writeCSV emits one row per budget fraction from the points' summaries,
// given in sweepPoints order.
func writeCSV(out io.Writer, fracs []float64, cal core.Calibration, sums []engine.Summary) {
	fmt.Fprintln(out, "budget_frac,budget_w,ours_power_w,ours_degradation,maxbips_power_w,maxbips_degradation")
	for i, frac := range fracs {
		ours, mb := sums[1+2*i], sums[2+2*i]
		fmt.Fprintf(out, "%.2f,%.2f,%.2f,%.4f,%.2f,%.4f\n",
			frac, cal.BudgetW(frac), ours.MeanPowerW, engine.Degradation(ours, sums[0]),
			mb.MeanPowerW, engine.Degradation(mb, sums[0]))
	}
}

// verdict fails a finished point on an invariant violation under -check.
func (o sweepOptions) verdict(sc check.Scenario, suite *check.Suite) error {
	if !o.Check {
		return nil
	}
	if err := suite.Err(); err != nil {
		return fmt.Errorf("%s: %w", sc.Name, err)
	}
	return nil
}

// runFarm is the default route: the points run as one check.RunBatch.
// All points share the sweep's workload identity (budget, controller and
// initial DVFS level are compute-half state), so they collapse into one
// sampler group and the sweep pays the sampling cost of a single run
// instead of 1+2*len(budgets) runs, stepped on one worker. Batch runs are
// bit-identical to sim.New runs, so the CSV is byte-identical to the
// resilient route's.
func runFarm(pts []check.Scenario, o sweepOptions, samplerState []byte, logw io.Writer) ([]engine.Summary, error) {
	sums, suites, err := check.RunBatch(pts, o.Seed, samplerState, progressPrinter(logw))
	if err != nil {
		return nil, err
	}
	for i, sc := range pts {
		if err := o.verdict(sc, suites[i]); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// runResilient is the crash-safe route: every point becomes a sweepd point
// driven by the coordinator. Workers checkpoint at interval boundaries; a
// killed (or panicked) worker's point migrates to a survivor and resumes
// from its latest checkpoint, and the CSV stays byte-identical to the farm
// route at any worker count and under any kill schedule.
func runResilient(pts []check.Scenario, o sweepOptions, logw io.Writer) ([]engine.Summary, error) {
	points := make([]sweepd.Point, len(pts))
	suites := make([]*check.Suite, len(pts)) // final incarnation per point
	for i, sc := range pts {
		i, sc := i, sc
		// The index keeps repeated budget fractions unique: names are
		// checkpoint fingerprints.
		points[i] = sweepd.Point{Name: fmt.Sprintf("%s#%d", sc.Name, i), Build: func() (*sweepd.Instance, error) {
			sess, suite, err := sc.Build(o.Seed)
			if err != nil {
				return nil, err
			}
			suites[i] = suite
			inst := &sweepd.Instance{Session: sess}
			if o.Check {
				inst.Check = suite.Err
			}
			return inst, nil
		}}
	}
	c, err := sweepd.New(points, sweepd.Config{
		Workers:         o.Workers,
		CheckpointEvery: o.CkptEvery,
		KillEvery:       o.KillEvery,
		Metrics:         sweepd.NewInstruments(o.Metrics, o.Mix.Name),
		Log:             logw,
	})
	if err != nil {
		return nil, err
	}
	sums, err := c.Run()
	st := c.Stats()
	fmt.Fprintf(logw, "resilient sweep: %d points, %d checkpoints (%d bytes total, %d max), %d kills, %d migrations (%d resumed from checkpoints)\n",
		len(pts), st.Checkpoints, st.CheckpointBytes, st.MaxCheckpointBytes, st.Kills, st.Migrations, st.Restores)
	if err != nil {
		return nil, err
	}
	// The coordinator's boundary checks catch mid-run violations; this
	// final pass covers the tail intervals after the last boundary check.
	for i, sc := range pts {
		if err := o.verdict(sc, suites[i]); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// progressPrinter reports fleet progress and an ETA to the log writer as
// points finish. Stdout never sees it — the CSV stays byte-identical with
// or without progress.
func progressPrinter(logw io.Writer) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		elapsed := time.Since(start)
		if done <= 0 || done > total {
			fmt.Fprintf(logw, "progress: %d/%d points\n", done, total)
			return
		}
		eta := elapsed / time.Duration(done) * time.Duration(total-done)
		fmt.Fprintf(logw, "progress: %d/%d points, elapsed %s, eta %s\n",
			done, total, elapsed.Round(time.Second), eta.Round(time.Second))
	}
}

// warmStart simulates the sweep's warm-up once per chip configuration —
// the managed points start at the default DVFS level, the unmanaged
// baseline (pts[0]) at the top one — snapshots both chips, and forks every
// point from its snapshot with no warm-up of its own. On the farm route
// (shared) the two template chips step in lockstep over one record
// sampler, whose snapshot is returned for the farm's samplers to resume
// from, cursors aligned with the templates' interval counters. Otherwise
// (the resilient route) each template is a sim.New chip that owns its
// sampler and carries it in its snapshot.
func warmStart(pts []check.Scenario, seed uint64, shared bool) (samplerState []byte, err error) {
	cfgs := [2]sim.Config{pts[1].BuildConfig(seed), pts[0].BuildConfig(seed)} // managed, unmanaged
	var sampler *sim.Sampler
	if shared {
		if sampler, err = sim.NewSampler(cfgs[0]); err != nil {
			return nil, err
		}
	}
	var chips [2]*sim.CMP
	for i, cfg := range cfgs {
		if shared {
			chips[i], err = sim.NewWithRecords(cfg, sampler)
		} else {
			chips[i], err = sim.New(cfg)
		}
		if err != nil {
			return nil, err
		}
	}
	for k := 0; k < pts[0].WarmEpochs*20; k++ {
		for _, c := range chips {
			c.Step()
		}
	}
	var states [2][]byte
	for i, c := range chips {
		e := snapshot.NewEncoder()
		if err := c.Snapshot(e); err != nil {
			return nil, err
		}
		states[i] = e.Bytes()
	}
	for i := range pts {
		if pts[i].Unmanaged {
			pts[i].WarmState = states[1]
		} else {
			pts[i].WarmState = states[0]
		}
		pts[i].WarmEpochs = 0
	}
	if shared {
		e := snapshot.NewEncoder()
		sampler.Snapshot(e)
		samplerState = e.Bytes()
	}
	return samplerState, nil
}

func parseBudgets(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("cpmsweep: -budgets: bad budget %q", part)
		}
		if !(v > 0 && v <= 1) { // also rejects NaN
			return nil, fmt.Errorf("cpmsweep: -budgets: budget %v out of (0, 1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cpmsweep: -budgets: no budgets")
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
