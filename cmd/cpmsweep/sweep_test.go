package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/workload"
)

func testOptions(workers int) sweepOptions {
	return sweepOptions{
		Mix:     workload.Mix1(),
		Policy:  "performance",
		Fracs:   []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95},
		Seed:    1,
		Warm:    1,
		Epochs:  2,
		Workers: workers,
	}
}

// TestSweepOutputIdenticalAcrossWorkerCounts is the CSV-level determinism
// guarantee: pooled execution must be byte-identical to serial. -workers
// acts only on the resilient route, so that is the route it runs.
func TestSweepOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	resilient := func(workers int) sweepOptions {
		o := testOptions(workers)
		o.Resilient = true
		return o
	}
	var serial, pooled bytes.Buffer
	if err := sweep(resilient(1), &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := sweep(resilient(8), &pooled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Fatalf("workers=8 output differs from workers=1:\n--- serial ---\n%s--- pooled ---\n%s",
			serial.String(), pooled.String())
	}
	if serial.Len() == 0 {
		t.Fatal("empty sweep output")
	}
}

// TestWarmStartSweepDeterministic pins the forked warm-up path: every
// budget point restores the same warm snapshot, so the CSV must still be
// byte-identical across worker counts (on the resilient route, where
// -workers acts), and the checked suite must stay clean on the forked
// chips.
func TestWarmStartSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start sweep in -short mode")
	}
	warmOpts := func(workers int) sweepOptions {
		o := testOptions(workers)
		o.Fracs = []float64{0.7, 0.8, 0.9}
		o.WarmStart = true
		o.Check = true
		o.Resilient = true
		return o
	}
	var serial, pooled bytes.Buffer
	if err := sweep(warmOpts(1), &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := sweep(warmOpts(8), &pooled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Fatalf("warm-started workers=8 output differs from workers=1:\n--- serial ---\n%s--- pooled ---\n%s",
			serial.String(), pooled.String())
	}
	if serial.Len() == 0 {
		t.Fatal("empty warm-started sweep output")
	}
}

func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets(" 0.5, 0.8 ,0.95")
	if err != nil || len(got) != 3 || got[0] != 0.5 || got[2] != 0.95 {
		t.Fatalf("parseBudgets = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "1.5", "0.5,,0.8", "NaN", "+Inf", "-Inf"} {
		if _, err := parseBudgets(bad); err == nil {
			t.Errorf("parseBudgets(%q) accepted", bad)
		}
	}
}

func TestParseSweepCLIValid(t *testing.T) {
	o, err := parseSweepCLI([]string{"-mix", "mix3", "-policy", "equal", "-budgets", "0.7,0.8", "-warm", "2", "-epochs", "4", "-check", "-warmstart", "-adaptive"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mix.Name != "Mix-3" || o.Policy != "equal" || len(o.Fracs) != 2 ||
		o.Warm != 2 || o.Epochs != 4 || !o.Check || !o.WarmStart || !o.Adaptive {
		t.Errorf("options not threaded: %+v", o)
	}
}

// TestSweepAdaptiveAndPredictiveRoutes pins the new control configurations
// through the farm route: for each of (-adaptive fixed-policy, -policy mpc,
// -policy cache) it must emit byte-identical CSV to the scalar oracle,
// under the invariant suite.
func TestSweepAdaptiveAndPredictiveRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive/predictive sweeps in -short mode")
	}
	cases := []struct {
		name     string
		policy   string
		adaptive bool
	}{
		{"adaptive", "performance", true},
		{"mpc", "mpc", false},
		{"cache", "cache", false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(2)
			o.Fracs = []float64{0.8}
			o.Policy = c.policy
			o.Adaptive = c.adaptive
			o.Check = true
			want := scalarCSV(t, o)
			if got := runSweep(t, o); !bytes.Equal(got, want) {
				t.Fatalf("farm route differs from scalar:\n--- scalar ---\n%s--- farm ---\n%s", want, got)
			}
		})
	}
}

func TestParseSweepCLIDiagFlags(t *testing.T) {
	o, err := parseSweepCLI([]string{"-metrics", "out.prom", "-pprof", "localhost:6060", "-trace", "run.trace"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Diag == nil {
		t.Fatal("diag flags not bound")
	}
	if o.Diag.MetricsPath != "out.prom" || o.Diag.PprofAddr != "localhost:6060" || o.Diag.TracePath != "run.trace" {
		t.Errorf("diag flags not threaded: %+v", o.Diag)
	}
	if reg := o.Diag.Registry(); reg == nil {
		t.Error("-metrics given but Registry() == nil")
	}
	// Without -metrics the registry must stay nil so runs skip the observer.
	o, err = parseSweepCLI(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reg := o.Diag.Registry(); reg != nil {
		t.Error("no -metrics flag but Registry() != nil")
	}
}

func TestParseSweepCLIRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"zero seed", []string{"-seed", "0"}, "-seed must be non-zero"},
		{"negative warm", []string{"-warm", "-1"}, "-warm must be >= 0"},
		{"zero epochs", []string{"-epochs", "0"}, "-epochs must be > 0"},
		{"negative epochs", []string{"-epochs", "-3"}, "-epochs must be > 0"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"bad mix", []string{"-mix", "nope"}, "nope"},
		{"bad policy", []string{"-policy", "nope"}, "unknown policy"},
		{"bad budget", []string{"-budgets", "1.5"}, "out of (0, 1]"},
		{"NaN budget", []string{"-budgets", "0.8,NaN"}, "-budgets: budget NaN out of (0, 1]"},
		{"empty budgets", []string{"-budgets", ""}, "bad budget"},
		{"undefined scalar flag", []string{"-scalar"}, "not defined"},
		{"undefined farm-size flag", []string{"-farm-size", "1"}, "flag provided but not defined: -farm-size"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseSweepCLI(c.argv, io.Discard)
			if err == nil {
				t.Fatalf("parseSweepCLI(%v) accepted", c.argv)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseSweepCLI(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}

// TestSweepChecked runs a tiny checked sweep end to end: the -check plumbing
// must attach the suite and the canonical mix must come back clean.
func TestSweepChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("checked sweep in -short mode")
	}
	o := testOptions(1)
	o.Fracs = []float64{0.8}
	o.Check = true
	var out bytes.Buffer
	if err := sweep(o, &out, io.Discard); err != nil {
		t.Fatalf("checked sweep failed: %v", err)
	}
	if !strings.Contains(out.String(), "budget_frac") {
		t.Fatalf("no CSV emitted:\n%s", out.String())
	}
}

func TestMakePolicyNames(t *testing.T) {
	for _, name := range []string{"performance", "equal", "variation", "thermal", "mpc", "cache"} {
		build, err := check.PolicyByName(name)
		if err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if p, err := build(); err != nil || p == nil {
			t.Errorf("policy %q built %v, %v", name, p, err)
		}
		if _, err := parseSweepCLI([]string{"-policy", name}, io.Discard); err != nil {
			t.Errorf("-policy %s rejected: %v", name, err)
		}
	}
	if _, err := check.PolicyByName("nope"); err == nil {
		t.Error("unknown policy name accepted")
	}
}

// BenchmarkPoolSweep compares a serial 8-point sweep against the pooled
// executor on the resilient route (-resilient), where every point is its
// own session sampling for itself and -workers sets how many run at once.
// Calibration is cached by the first iteration; the benchmark isolates the
// fan-out of independent points.
func BenchmarkPoolSweep(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.Helper()
		o := testOptions(workers)
		o.Resilient = true
		for i := 0; i < b.N; i++ {
			if err := sweep(o, io.Discard, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pooled", func(b *testing.B) { run(b, 0) })
}

// runSweep executes one sweep and returns the CSV bytes.
func runSweep(t *testing.T, o sweepOptions) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := sweep(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty sweep output")
	}
	return out.Bytes()
}

// scalarCSV is the sweep's test oracle: every point of o built by
// Scenario.Build — a sim.New chip that samples for itself — and run to
// completion as its own session, serially, with warm-started points forked
// from sim.New templates.
func scalarCSV(t *testing.T, o sweepOptions) []byte {
	t.Helper()
	pts, err := sweepPoints(o)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := pts[0].Calibration(o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if o.WarmStart {
		if _, err := warmStart(pts, o.Seed, false); err != nil {
			t.Fatal(err)
		}
	}
	sums := make([]engine.Summary, len(pts))
	for i, sc := range pts {
		sess, suite, err := sc.Build(o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sess.Run()
		if err := suite.Err(); o.Check && err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
	var out bytes.Buffer
	writeCSV(&out, o.Fracs, cal, sums)
	return out.Bytes()
}

// TestSweepFarmMatchesScalar is the sweep-level equivalence contract: the
// farm route, every point over one shared sampler, must produce CSV
// byte-identical to the scalar oracle, with the invariant suite attached to
// every point.
func TestSweepFarmMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("farm-vs-scalar sweep in -short mode")
	}
	for _, warm := range []int{1, 0} {
		o := testOptions(1)
		o.Fracs = []float64{0.7, 0.8, 0.9}
		o.Warm = warm
		o.Check = true
		if got, scalar := runSweep(t, o), scalarCSV(t, o); !bytes.Equal(got, scalar) {
			t.Errorf("warm=%d CSV differs from scalar oracle:\n--- scalar ---\n%s--- farm ---\n%s",
				warm, scalar, got)
		}
	}
}

// TestSweepFarmWarmstartMatchesScalar pins the warm-started farm route:
// thin warm templates over a shared sampler must fork into the same
// trajectories as the oracle's sim.New warm templates.
func TestSweepFarmWarmstartMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-started farm sweep in -short mode")
	}
	o := testOptions(1)
	o.Fracs = []float64{0.7, 0.9}
	o.WarmStart = true
	o.Check = true
	if got, scalar := runSweep(t, o), scalarCSV(t, o); !bytes.Equal(got, scalar) {
		t.Errorf("warm-started CSV differs from scalar oracle:\n--- scalar ---\n%s--- farm ---\n%s", scalar, got)
	}
}
