package check

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// farmSpecs builds one farm ChipSpec per scenario at the given seed,
// wiring a Golden recorder and the invariant suite into each session. The
// returned slices are parallel to scenarios.
func farmSpecs(t *testing.T, scenarios []Scenario, seed uint64) ([]farm.ChipSpec, []*Golden, []*Suite) {
	t.Helper()
	specs := make([]farm.ChipSpec, len(scenarios))
	goldens := make([]*Golden, len(scenarios))
	suites := make([]*Suite, len(scenarios))
	for i, sc := range scenarios {
		sc := sc
		i := i
		goldens[i] = NewGolden(sc.Name)
		specs[i] = farm.ChipSpec{
			Config: sc.BuildConfig(seed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, suite, err := sc.BuildOn(cmp, seed, goldens[i])
				suites[i] = suite
				return sess, err
			},
		}
	}
	return specs, goldens, suites
}

// loadRef fetches a scenario's pinned golden trace, skipping when absent.
func loadRef(t *testing.T, name string) Trace {
	t.Helper()
	ref, err := LoadTrace(goldenPath(name))
	if os.IsNotExist(err) {
		t.Skipf("no golden trace at %s; run -update first", goldenPath(name))
	}
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// checkFarmTraces compares each scenario's farm-path trace against its
// pinned golden and its suite against zero violations.
func checkFarmTraces(t *testing.T, scenarios []Scenario, goldens []*Golden, suites []*Suite) {
	t.Helper()
	for i, sc := range scenarios {
		if err := suites[i].Err(); err != nil {
			t.Errorf("scenario %s violated invariants through the farm path:\n%v", sc.Name, err)
		}
		if err := goldens[i].Trace().Diff(loadRef(t, sc.Name)); err != nil {
			t.Errorf("farm path diverged from the scalar golden: %v", err)
		}
	}
}

// TestFarmSingleChipGolden runs every canonical scenario as a 1-chip farm:
// the record-driven chip must reproduce the scenario's pinned digests
// exactly — the scalar/batched equivalence contract at fleet size one.
func TestFarmSingleChipGolden(t *testing.T) {
	for _, sc := range Canonical() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			scenarios := []Scenario{sc}
			specs, goldens, suites := farmSpecs(t, scenarios, goldenSeed)
			f, err := farm.New(specs, farm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f.NumGroups() != 1 {
				t.Fatalf("1-chip farm built %d groups", f.NumGroups())
			}
			if _, err := f.Run(engine.Pool{Workers: 1}, nil); err != nil {
				t.Fatal(err)
			}
			checkFarmTraces(t, scenarios, goldens, suites)
		})
	}
}

// TestFarmSharedSamplerGolden runs all eleven canonical scenarios as ONE
// farm. Those sharing a workload key (most are Mix-1 at seed 1) must
// collapse into one sampler group per key — the sharing path that gives the farm its
// throughput — while still reproducing, chip for chip, the exact digests
// the scalar path pinned. This is the strongest equivalence statement:
// heterogeneous controllers (CPM, MaxBIPS, thermal/variation policies,
// fault injection) at different budgets all drawing records from one
// shared sampling stream, bit-identical to eleven independent live chips.
func TestFarmSharedSamplerGolden(t *testing.T) {
	scenarios := Canonical()
	specs, goldens, suites := farmSpecs(t, scenarios, goldenSeed)
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[farm.WorkloadKey]bool{}
	for _, spec := range specs {
		keys[farm.KeyOf(spec.Config)] = true
	}
	if f.NumGroups() != len(keys) || len(keys) >= len(specs) {
		t.Fatalf("%d chips over %d workload keys built %d groups, want one per key", len(specs), len(keys), f.NumGroups())
	}
	if _, err := f.Run(engine.Pool{Workers: 4}, nil); err != nil {
		t.Fatal(err)
	}
	checkFarmTraces(t, scenarios, goldens, suites)
}

// TestRunBatchMatchesScenarioRuns: RunBatch returns, in scenario order,
// the summary each scenario's own Run produces and a suite per run, for a
// batch whose scenarios span two workload keys and three controllers.
func TestRunBatchMatchesScenarioRuns(t *testing.T) {
	var scs []Scenario
	for _, name := range []string{"cpm-default", "thermal-policy", "maxbips"} {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	sums, suites, err := RunBatch(scs, goldenSeed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(scs) || len(suites) != len(scs) {
		t.Fatalf("%d scenarios gave %d summaries and %d suites", len(scs), len(sums), len(suites))
	}
	for i, sc := range scs {
		want, _, err := sc.Run(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sums[i], want) {
			t.Errorf("%s: batch summary differs from its own run", sc.Name)
		}
		if err := suites[i].Err(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
}

// TestFarmReplicatedDistinctSeeds replicates one scenario across distinct
// seeds in a single farm — distinct workload keys, so distinct samplers —
// and demands each chip reproduce the digests of its own scalar run. The
// seed-1 replica must additionally match the stored golden file.
func TestFarmReplicatedDistinctSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated-seed replay skipped in -short mode")
	}
	sc := Canonical()[0] // cpm-default
	seeds := []uint64{goldenSeed, 2, 3}

	// Scalar references, one per seed.
	refs := make([]Trace, len(seeds))
	for i, seed := range seeds {
		g := NewGolden(sc.Name)
		if _, _, err := sc.Run(seed, g); err != nil {
			t.Fatal(err)
		}
		refs[i] = g.Trace()
	}

	specs := make([]farm.ChipSpec, len(seeds))
	goldens := make([]*Golden, len(seeds))
	for i, seed := range seeds {
		seed := seed
		i := i
		goldens[i] = NewGolden(sc.Name)
		specs[i] = farm.ChipSpec{
			Config: sc.BuildConfig(seed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, _, err := sc.BuildOn(cmp, seed, goldens[i])
				return sess, err
			},
		}
	}
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumGroups() != len(seeds) {
		t.Fatalf("distinct seeds must not share samplers: %d chips, %d groups", len(seeds), f.NumGroups())
	}
	if _, err := f.Run(engine.Pool{Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		if err := goldens[i].Trace().Diff(refs[i]); err != nil {
			t.Errorf("seed %d: farm chip diverged from its scalar run: %v", seed, err)
		}
	}
	if err := goldens[0].Trace().Diff(loadRef(t, sc.Name)); err != nil {
		t.Errorf("seed-1 farm chip diverged from the stored golden: %v", err)
	}
}

// windowMember is one member of a windowed farm group under test: a
// scenario, with a telemetry registry of its own, and its golden recorder.
type windowMember struct {
	sc     Scenario
	golden *Golden
}

// newWindowMember returns sc with the given windows and budget, its
// telemetry observer wired to a registry of its own.
func newWindowMember(t *testing.T, name string, frac float64, warm, meas int) windowMember {
	t.Helper()
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc.BudgetFrac, sc.WarmEpochs, sc.MeasureEpochs = frac, warm, meas
	sc.Metrics = metrics.NewRegistry()
	return windowMember{sc: sc, golden: NewGolden(sc.Name)}
}

// cacheSamples returns the cpm_cache_* lines of a registry's exposition.
func cacheSamples(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "cpm_cache_") {
			out = append(out, line)
		}
	}
	return out
}

// runWindowGroup runs the members as one farm group (resuming
// samplerState when non-nil) and compares every member against its scalar
// run, which forks from scalarWarm: the golden trace and every cpm_cache_*
// sample must be identical.
func runWindowGroup(t *testing.T, members []windowMember, samplerState, scalarWarm []byte) {
	t.Helper()
	specs := make([]farm.ChipSpec, len(members))
	for i, m := range members {
		m := m
		specs[i] = farm.ChipSpec{
			Config: m.sc.BuildConfig(goldenSeed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, _, err := m.sc.BuildOn(cmp, goldenSeed, m.golden)
				return sess, err
			},
		}
	}
	f, err := farm.New(specs, farm.Options{SamplerState: samplerState})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumGroups() != 1 {
		t.Fatalf("%d members built %d groups, want one", len(members), f.NumGroups())
	}
	if _, err := f.Run(engine.Pool{Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		ref := newWindowMember(t, m.sc.Name, m.sc.BudgetFrac, m.sc.WarmEpochs, m.sc.MeasureEpochs)
		ref.sc.WarmState = scalarWarm
		sess, _, err := ref.sc.Build(goldenSeed, ref.golden)
		if err != nil {
			t.Fatal(err)
		}
		sess.Run()
		what := fmt.Sprintf("%s at %.2f, %d+%d epochs", m.sc.Name, m.sc.BudgetFrac, m.sc.WarmEpochs, m.sc.MeasureEpochs)
		if err := m.golden.Trace().Diff(ref.golden.Trace()); err != nil {
			t.Errorf("%s: farm member diverged from its scalar run: %v", what, err)
		}
		got, want := cacheSamples(t, m.sc.Metrics), cacheSamples(t, ref.sc.Metrics)
		if len(want) == 0 {
			t.Fatalf("%s: the scalar run exported no cache samples", what)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: farm cache telemetry differs from the scalar run:\nfarm   %q\nscalar %q", what, got, want)
		}
	}
}

// TestFarmWindowedGroupMatchesScalar runs one farm group whose members end
// mid-window — the canonical 2 + 4 epochs and a sweep's 6 + 16, neither a
// multiple of the group's record-log window — with cache-aware members and
// the telemetry observer on every member. A member reading its cache
// counters at the wrong interval diverges in its golden trace only through
// the cache-aware policy, but in its cache telemetry on every member.
func TestFarmWindowedGroupMatchesScalar(t *testing.T) {
	runWindowGroup(t, []windowMember{
		newWindowMember(t, "cpm-default", 0.8, 2, 4),
		newWindowMember(t, "cache-aware", 0.7, 2, 4),
		newWindowMember(t, "cache-aware", 0.6, 6, 16),
		newWindowMember(t, "maxbips", 0.8, 6, 16),
		newWindowMember(t, "variation-aware", 0.8, 2, 4),
		newWindowMember(t, "mpc-gpm", 0.9, 6, 16),
	}, nil, nil)
}

// TestFarmWindowedWarmStartMatchesScalar is the warm-started twin: the
// group resumes a sampler snapshot taken after 6 epochs of lockstep
// warm-up, so its window starts mid-stream with the restored sampler's
// counters, and each member forks from the warm chip. The
// scalar side forks from a sim.New chip warmed as long.
func TestFarmWindowedWarmStartMatchesScalar(t *testing.T) {
	const warmIntervals = 6 * 20
	members := []windowMember{
		newWindowMember(t, "cpm-default", 0.8, 0, 4),
		newWindowMember(t, "cache-aware", 0.7, 0, 16),
		newWindowMember(t, "cache-aware", 0.6, 0, 4),
		newWindowMember(t, "maxbips", 0.8, 0, 16),
	}
	cfg := members[0].sc.BuildConfig(goldenSeed)
	sampler, err := sim.NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sim.NewWithRecords(cfg, sampler)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < warmIntervals; k++ {
		shared.Step()
		scalar.Step()
	}
	state := func(snap func(*snapshot.Encoder) error) []byte {
		e := snapshot.NewEncoder()
		if err := snap(e); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	for i := range members {
		members[i].sc.WarmState = state(shared.Snapshot)
	}
	samplerState := state(func(e *snapshot.Encoder) error { sampler.Snapshot(e); return nil })
	runWindowGroup(t, members, samplerState, state(scalar.Snapshot))
}
