package check

import (
	"os"
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/sim"
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
	if f.NumGroups() != len(keys) || len(keys) >= f.NumChips() {
		t.Fatalf("%d chips over %d workload keys built %d groups, want one per key", f.NumChips(), len(keys), f.NumGroups())
	}
	if _, err := f.Run(engine.Pool{Workers: 4}, nil); err != nil {
		t.Fatal(err)
	}
	checkFarmTraces(t, scenarios, goldens, suites)
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
