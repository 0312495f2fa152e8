package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/cpm-sim/cpm/internal/serve"
)

func TestMain(m *testing.M) {
	// Tests run in perfbench/; the pinned goldens live under the root.
	goldenDir = filepath.Join("..", goldenDir)
	os.Exit(m.Run())
}

func newTestRun(t *testing.T, seed uint64) *run {
	t.Helper()
	g, err := newGate()
	if err != nil {
		t.Fatal(err)
	}
	return &run{
		opts:  options{workload: "resilient", seed: seed, seconds: 1},
		start: time.Now(), gate: g, e2e: newMetricSet(), layer: newMetricSet(),
	}
}

// sweep runs pts through one resilient round, failing the test on a
// coordinator error.
func sweep(t *testing.T, r *run, pts []point, traced bool) {
	t.Helper()
	if _, _, _, err := r.sweepRound(pts, traced); err != nil {
		t.Fatal(err)
	}
}

// TestGateCountsPerturbedController shows the gate is not vacuous: a
// golden-seed point whose PID gains are scaled by 1.15 (the perturbation
// internal/check's own self-test uses) runs without error and without
// invariant violations, and is killed and restored as usual, yet lands in
// the failure count, untraced and traced.
func TestGateCountsPerturbedController(t *testing.T) {
	r := newTestRun(t, 1)
	p := canonicalPoints()[0]
	if p.sc.Name != "cpm-default" {
		t.Fatalf("first canonical point is %s", p.sc.Name)
	}
	sweep(t, r, []point{p}, false)
	if n, err := r.gate.failures(); n != 0 {
		t.Fatalf("unperturbed point failed the gate: %v", err)
	}
	p.sc.GainScale = 1.15
	for i, traced := range []bool{false, true} {
		sweep(t, r, []point{p}, traced)
		n, err := r.gate.failures()
		if n != i+1 {
			t.Fatalf("perturbed point (traced=%v) left %d failures, want %d", traced, n, i+1)
		}
		t.Logf("counted as expected: %v", err)
	}
}

// TestSeedsChangeDerivedInputs runs two workload seeds: the golden-seed
// points are the same under both, every derived input differs, and both
// seeds' derived points pass the gate, untraced and traced.
func TestSeedsChangeDerivedInputs(t *testing.T) {
	const a, b = 11, 12
	if !reflect.DeepEqual(names(canonicalPoints()), names(scalarPoints(a)[:11])) ||
		!reflect.DeepEqual(names(scalarPoints(a)[:11]), names(scalarPoints(b)[:11])) {
		t.Fatal("golden-seed points depend on the workload seed")
	}
	if reflect.DeepEqual(names(scalarPoints(a)), names(scalarPoints(b))) {
		t.Fatal("scalar derived points do not depend on the workload seed")
	}
	fa, err := fleetMembers(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fleetMembers(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != fleetGroups*fleetGroupSize || reflect.DeepEqual(names(fa), names(fb)) {
		t.Fatal("fleet members do not depend on the workload seed")
	}
	if reflect.DeepEqual(newColdStream(a).reqs, newColdStream(b).reqs) {
		t.Fatal("serve cold requests do not depend on the workload seed")
	}
	for _, seed := range []uint64{a, b} {
		r := newTestRun(t, seed)
		derived := scalarPoints(seed)[11:13] // cpm-default and maxbips at a derived seed
		for _, p := range derived {
			if p.golden || p.seed == goldenSeed {
				t.Fatalf("%s is not a derived-seed point", p.name)
			}
		}
		sweep(t, r, derived, false)
		sweep(t, r, derived, true)
		if n, err := r.gate.failures(); n != 0 {
			t.Fatalf("seed %d: %d gate failures: %v", seed, n, err)
		}
	}
}

// TestColdPassesStayDistinct checks that later serve cold passes keep
// every request a distinct cache key (so each one misses) and need no
// calibration key the first pass does not.
func TestColdPassesStayDistinct(t *testing.T) {
	cs := newColdStream(7)
	firstKeys := calibrationKeys(coldPoints(t, cs.reqs[:cs.first]))
	cs.at(5 * cs.first)
	keys := map[string]bool{}
	for _, req := range cs.reqs {
		resolved, _, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if keys[resolved.CacheKey()] {
			t.Fatalf("cold request %+v repeats a cache key", req)
		}
		keys[resolved.CacheKey()] = true
	}
	if all := calibrationKeys(coldPoints(t, cs.reqs)); len(all) != len(firstKeys) {
		t.Fatalf("%d cold requests need %d calibration keys, the first pass %d", len(cs.reqs), len(all), len(firstKeys))
	}
}

func coldPoints(t *testing.T, reqs []serve.Request) []point {
	t.Helper()
	pts, err := requestPoints(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func names(pts []point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.name
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := samples{name: "x"}
	for i := 1; i <= 19; i++ {
		s.add(float64(i))
	}
	if _, err := s.percentile(0.5); err == nil {
		t.Fatal("p50 of 19 samples has only 9 beyond it and must be refused")
	}
	s.add(20)
	v, err := s.percentile(0.5)
	if err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the binary's metric tables and
// BENCHMARK.json in step: same names, same units, same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.mode, len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.mode, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
