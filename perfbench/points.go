package main

import (
	"fmt"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/stats"
)

// goldenSeed is the seed the pinned golden traces were recorded at. Points
// at this seed run canonical windows so their digests compare; they do not
// depend on the workload seed.
const goldenSeed = 1

// Windows of derived-seed points: the cpmsweep defaults.
const (
	sweepWarmEpochs    = 6
	sweepMeasureEpochs = 16
)

// derivedSeedCount is how many seeds the scalar point set
// (and the serve cold phase) draw from the workload seed.
const derivedSeedCount = 2

// point is one simulation run: a canonical scenario, possibly re-seeded,
// re-budgeted and re-windowed.
type point struct {
	name   string // unique within a workload
	sc     check.Scenario
	seed   uint64
	golden bool // canonical at the golden seed: digests must match the pinned files
}

// intervals is the number of chip-intervals the point simulates.
func (p point) intervals() int {
	warm, meas := p.sc.Defaults()
	return (warm + meas) * 20
}

// mix1Shared returns the canonical scenarios that share the Mix-1
// golden-seed workload key: every CPM policy kind plus MaxBIPS on the
// homogeneous Mix-1 chip (hetero-biglittle and tech-16nm change the core
// pipeline and so the sampling half).
func mix1Shared() []check.Scenario {
	var out []check.Scenario
	for _, sc := range check.Canonical() {
		if sc.Mix().Name == "Mix-1" && sc.Classes == nil && !sc.Tech.Enabled() {
			out = append(out, sc)
		}
	}
	return out
}

// derivedSeeds draws n simulation seeds from the workload seed. They are
// never the golden seed, and never 0 (which serve resolves to the golden
// seed).
func derivedSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		s := stats.DeriveSeed(seed, 0x5eed, uint64(i))
		if s <= goldenSeed {
			s += 2
		}
		out[i] = s
	}
	return out
}

// canonicalPoints are the eleven pinned scenarios at the golden seed.
func canonicalPoints() []point {
	var pts []point
	for _, sc := range check.Canonical() {
		pts = append(pts, point{name: sc.Name, sc: sc, seed: goldenSeed, golden: true})
	}
	return pts
}

// sweepPoint re-windows sc to the cpmsweep defaults at seed.
func sweepPoint(sc check.Scenario, seed uint64, budgetFrac float64) point {
	sc.WarmEpochs, sc.MeasureEpochs = sweepWarmEpochs, sweepMeasureEpochs
	if budgetFrac > 0 {
		sc.BudgetFrac = budgetFrac
	}
	return point{name: fmt.Sprintf("%s@%d/b=%.4f", sc.Name, seed, sc.BudgetFrac), sc: sc, seed: seed}
}

// scalarPoints is the point set the resilient workload sweeps (the one a
// scalar cpmsweep would run as independent sessions): the eleven canonical
// points, then the shared-key Mix-1 scenarios at their own budgets on
// derivedSeedCount seeds drawn from the workload seed.
func scalarPoints(seed uint64) []point {
	pts := canonicalPoints()
	for _, s := range derivedSeeds(seed, derivedSeedCount) {
		for _, sc := range mix1Shared() {
			pts = append(pts, sweepPoint(sc, s, 0))
		}
	}
	return pts
}

// calibrationKeys returns one point per distinct calibration key of pts
// (check caches calibrations by mix, variation, seed, tech and classes), so
// set-up can calibrate each key once, in parallel.
func calibrationKeys(pts []point) []point {
	seen := map[string]bool{}
	var out []point
	for _, p := range pts {
		cfg := p.sc.BuildConfig(p.seed)
		k := fmt.Sprintf("%s/var=%d/seed=%d/tech=%s/classes=%v",
			cfg.Mix.Name, p.sc.Variation.Len(), cfg.Seed, cfg.Tech, cfg.IslandClasses)
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// calibrate builds (without running) one session per calibration key of
// pts on the pool, so every key is calibrated once, in parallel, and the
// process-wide calibration cache is warm for the timed phase.
func (r *run) calibrate(pts []point) error {
	keys := calibrationKeys(pts)
	t := time.Now()
	_, err := engine.Map(engine.Pool{Workers: workers}, len(keys), func(i int) (struct{}, error) {
		_, _, err := keys[i].sc.Build(keys[i].seed)
		return struct{}{}, err
	})
	r.layer.set("core.calibrate_s", "s", time.Since(t).Seconds(), len(keys))
	r.layer.set("core.calibrations", "count", float64(len(keys)), len(keys))
	return err
}

// budgetFracs draws n distinct budget fractions in (0.5, 0.95] from r, one
// per equal-width stratum so no two collide.
func budgetFracs(r *stats.Rand, n int) []float64 {
	out := make([]float64, n)
	w := 0.45 / float64(n)
	for i := range out {
		out[i] = 0.95 - w*float64(i) - w*r.Float64()*0.999
	}
	return out
}
