package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/cpm-sim/cpm/internal/sensor"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/stats"
)

// Calibration is the offline system-identification result the controllers
// are configured from, mirroring §II-D's methodology: per-island linear
// utilization→power transducers (Figure 6) and the plant gain a of the
// difference model (Equation 8), fitted from a white-noise DVFS run.
type Calibration struct {
	// Transducers are the per-island estimators the controllers deploy
	// with: the operating-point-aware refinement (sensor.LevelTransducer),
	// which removes the chord bias of a single global line.
	Transducers []sensor.Estimator
	// LevelR2 are the per-island goodness-of-fit values of the deployed
	// estimators.
	LevelR2 []float64
	// LinearTransducers are the paper's pure linear fits P = k0*U + k1
	// (Figure 6), kept for the figure reproduction and as an ablation.
	LinearTransducers []sensor.Transducer
	// R2 are the linear fits' per-island goodness-of-fit values (paper:
	// 0.96 average).
	R2 []float64
	// PlantGain is the identified a (island power fraction per normalized
	// frequency; paper: 0.79).
	PlantGain float64
	// PowerElasticity is the identified exponent e of the chip's
	// power-frequency relation P ∝ f^e over the operating region, fitted
	// from the white-noise windows. The paper's Equation (1) idealizes
	// e = 3; this substrate lands near 1.5 (see EXPERIMENTS.md).
	PowerElasticity float64
	// UnmanagedPowerW is the mean chip power with every island pinned at
	// the top level — the "required power by the whole chip" that budgets
	// are expressed against in §IV.
	UnmanagedPowerW float64
	// UnmanagedBIPS is the mean chip throughput at the top level, the
	// baseline for performance-degradation figures.
	UnmanagedBIPS float64
}

// BudgetW converts a §IV-style budget fraction ("80% of the required
// power") into watts.
func (c Calibration) BudgetW(frac float64) float64 { return frac * c.UnmanagedPowerW }

// RecommendedExponent returns the performance-expectation exponent matched
// to the identified power elasticity (1/e), the substrate-calibrated
// alternative to Equation (4)'s cube root — see
// gpm.PerformanceAware.PowerExponent.
func (c Calibration) RecommendedExponent() float64 {
	if c.PowerElasticity <= 0 {
		return 1.0 / 3.0
	}
	return 1 / c.PowerElasticity
}

// Calibrate performs the offline identification for the chip described by
// cfg: an unmanaged run at the top operating point (warm + measure
// intervals) and a white-noise DVFS run (warm intervals, then
// max(measure/8, 2) held windows of 8) during which per-island (utilization,
// power) pairs and (Δpower, Δfrequency) pairs are collected and fitted.
//
// Records do not depend on the operating point, so both runs are chips over
// one sampler stepped in lockstep: each interval the baseline samples and
// the white-noise chip reads the cached batch. Whichever run is longer
// steps on alone once the other is done.
func Calibrate(cfg sim.Config, warm, measure int) (Calibration, error) {
	if warm < 0 || measure < 2 {
		return Calibration{}, errors.New("core: need at least two measurement intervals")
	}

	cfg.InitialLevel = -1
	src, err := sim.NewSampler(cfg)
	if err != nil {
		return Calibration{}, err
	}
	base, err := sim.NewWithRecords(cfg, src)
	if err != nil {
		return Calibration{}, err
	}
	cmp, err := sim.NewWithRecords(cfg, src)
	if err != nil {
		return Calibration{}, err
	}

	// Unmanaged baseline: stepBase advances it one interval until it has
	// run warm + measure, summing power and BIPS over the measured ones in
	// interval order. It is called before every white-noise step, so it
	// always asks the sampler for the fresh interval.
	cal := Calibration{}
	baseLeft := warm + measure
	stepBase := func() {
		if baseLeft == 0 {
			return
		}
		r := base.Step()
		if baseLeft <= measure {
			cal.UnmanagedPowerW += r.ChipPowerW
			cal.UnmanagedBIPS += r.TotalBIPS
		}
		baseLeft--
	}

	// White-noise DVFS run on the second chip, fed the baseline's records. Each
	// random level is *held* for a short measurement window and the window
	// mean forms one calibration sample: per-interval workload phase noise
	// perturbs utilization much more than power, and fitting on raw
	// intervals would bury the level-to-level relation under it (this is
	// also how the paper's Figure 6 points are obtained — per measurement
	// window, not per controller tick).
	const (
		holdIntervals = 8
		settle        = 2 // discard post-transition transients
		// Levels below minLevel are excluded from the white-noise draw:
		// under the 50–95%% budgets of §IV the controllers operate in the
		// upper part of the table, and the utilization→power relation is
		// mildly convex, so fitting the line over the operating region
		// keeps the estimate unbiased where it is actually used.
		minLevel = 2
	)
	n := cmp.NumIslands()
	rng := stats.NewRand(stats.DeriveSeed(cfg.Seed, 0xca11b))
	utils := make([][]float64, n)
	fracs := make([][]float64, n)
	lvls := make([][]int, n)
	var dPow, dFreq []float64
	prevFrac := make([]float64, n)
	prevNorm := make([]float64, n)
	havePrev := false

	for k := 0; k < warm; k++ {
		stepBase()
		cmp.Step()
	}
	windows := measure / holdIntervals
	if windows < 2 {
		windows = 2
	}
	sumU := make([]float64, n)
	sumP := make([]float64, n)
	// One chip-wide draw range even on a heterogeneous chip: the draw spans
	// the largest island table and each island clamps to its own range, so
	// the RNG stream — and with it every calibration number — is unchanged
	// on homogeneous chips.
	maxLevels := 0
	for i := 0; i < n; i++ {
		if l := cmp.IslandTable(i).Levels(); l > maxLevels {
			maxLevels = l
		}
	}
	for w := 0; w < windows; w++ {
		// One random level per window for the whole chip: memory-channel
		// contention then matches what the deployed controllers see when
		// they drive all islands into the same region of the table, which
		// per-island independent draws would systematically understate.
		base, span := minLevel, maxLevels-minLevel
		if span < 1 {
			// Tables shorter than the excluded band (e.g. single-point
			// islands) draw over their whole range instead.
			base, span = 0, maxLevels
		}
		lvl := base + rng.Intn(span)
		for i := 0; i < n; i++ {
			cmp.SetLevel(i, lvl)
			sumU[i], sumP[i] = 0, 0
			lvls[i] = append(lvls[i], cmp.Level(i))
		}
		var norm []float64
		for k := 0; k < holdIntervals; k++ {
			stepBase()
			r := cmp.Step()
			if k < settle {
				continue
			}
			if norm == nil {
				norm = make([]float64, n)
				for i, ir := range r.Islands {
					// Each island's frequency normalizes on its *own*
					// table's axis, so per-island (Δpower, Δfrequency)
					// pairs — and the plant gain pooled from them — are
					// dimensionless in the same sense the PICs use.
					norm[i] = cmp.IslandTable(i).NormFreq(ir.FreqMHz)
				}
			}
			for i, ir := range r.Islands {
				sumU[i] += ir.MeanUtil
				sumP[i] += ir.PowerFracIsland
			}
		}
		cnt := float64(holdIntervals - settle)
		for i := 0; i < n; i++ {
			u, p := sumU[i]/cnt, sumP[i]/cnt
			utils[i] = append(utils[i], u)
			fracs[i] = append(fracs[i], p)
			if havePrev {
				dPow = append(dPow, p-prevFrac[i])
				dFreq = append(dFreq, norm[i]-prevNorm[i])
			}
			prevFrac[i] = p
			prevNorm[i] = norm[i]
		}
		havePrev = true
	}
	for baseLeft > 0 {
		stepBase()
	}
	cal.UnmanagedPowerW /= float64(measure)
	cal.UnmanagedBIPS /= float64(measure)

	for i := 0; i < n; i++ {
		lin, r2, err := sensor.FitTransducer(utils[i], fracs[i])
		if err != nil {
			return Calibration{}, fmt.Errorf("core: island %d transducer: %w", i, err)
		}
		cal.LinearTransducers = append(cal.LinearTransducers, lin)
		cal.R2 = append(cal.R2, r2)
		lt, lr2, err := sensor.FitLevelTransducer(lvls[i], utils[i], fracs[i], cmp.IslandTable(i).Levels())
		if err != nil {
			return Calibration{}, fmt.Errorf("core: island %d level transducer: %w", i, err)
		}
		cal.Transducers = append(cal.Transducers, lt)
		cal.LevelR2 = append(cal.LevelR2, lr2)
	}
	gain, err := sensor.FitPlantGain(dPow, dFreq)
	if err != nil {
		return Calibration{}, fmt.Errorf("core: plant gain: %w", err)
	}
	cal.PlantGain = gain

	// Power elasticity: regress ln(chip power) on ln(frequency) over the
	// white-noise windows (the draw is chip-wide per window, so island 0's
	// level list — clamped to its own table — describes every window).
	var lnF, lnP []float64
	for w, lvl := range lvls[0] {
		chip := 0.0
		for i := 0; i < n; i++ {
			chip += fracs[i][w]
		}
		lnF = append(lnF, math.Log(cmp.IslandTable(0).Point(lvl).FreqMHz))
		lnP = append(lnP, math.Log(chip))
	}
	efit, err := stats.LinReg(lnF, lnP)
	if err != nil {
		return Calibration{}, fmt.Errorf("core: power elasticity: %w", err)
	}
	cal.PowerElasticity = efit.Slope
	return cal, nil
}

// RunUnmanaged measures the mean chip power and throughput with all islands
// pinned at level (pass -1 for the top), the "no power management" baseline
// of Figure 12.
func RunUnmanaged(cfg sim.Config, level, warm, measure int) (powerW, bips float64, err error) {
	cfg.InitialLevel = level
	cmp, err := sim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	for k := 0; k < warm; k++ {
		cmp.Step()
	}
	if measure <= 0 {
		return 0, 0, errors.New("core: need measurement intervals")
	}
	for k := 0; k < measure; k++ {
		r := cmp.Step()
		powerW += r.ChipPowerW
		bips += r.TotalBIPS
	}
	return powerW / float64(measure), bips / float64(measure), nil
}
