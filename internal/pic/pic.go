// Package pic implements the Local Per-Island Controller of §II-D: a
// discrete PID controller that caps one voltage/frequency island's power at
// the budget provisioned by the Global Power Manager.
//
// Each invocation the controller:
//
//  1. reads the island's mean processor utilization (the performance-counter
//     observable),
//  2. converts it to estimated power through the linear transducer
//     P = k₀·U + k₁ of Figure 6,
//  3. computes the tracking error against the GPM-provisioned budget,
//  4. produces a frequency delta via the PID of Equation (7), and
//  5. quantizes the accumulated frequency target onto the island's 8-entry
//     DVFS table.
//
// All power quantities inside the controller are fractions of the island's
// maximum power, and frequency is normalized to [0, 1] over the DVFS range —
// in these units the identified plant gain lands near the paper's a ≈ 0.79
// and the paper's PID gains (0.4, 0.4, 0.3) apply unchanged.
package pic

import (
	"errors"
	"math"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sensor"
)

// Config parameterizes a controller.
type Config struct {
	// Gains are the PID design parameters (control.PaperGains by default).
	Gains control.Gains
	// Table is the island's DVFS table.
	Table *power.DVFSTable
	// IslandMaxW is the island's maximum power in watts, the unit converter
	// between GPM budgets (watts) and internal fractions.
	IslandMaxW float64
	// Transducer converts the measured utilization (plus the level the
	// controller itself applied) to an estimated power fraction.
	Transducer sensor.Estimator
	// UseOraclePower, when true, bypasses the transducer and feeds the
	// measured power back directly — an ablation mode quantifying how much
	// accuracy the utilization proxy costs.
	UseOraclePower bool
	// SmoothAlpha is the exponential-moving-average coefficient applied to
	// the feedback measurement (1 = no smoothing, smaller = smoother).
	// Zero selects the default of 1: with the operating-point-aware
	// transducer, smoothing buys no tracking accuracy and only adds loop
	// lag; the knob remains for sensitivity studies.
	SmoothAlpha float64
	// Adaptive, when non-nil, runs the controller in adaptive-gain mode:
	// the plant gain dP/df is estimated online by recursive least squares
	// and the PID gains rescaled to hold the design loop gain, with a
	// Jury-criterion stability guard (see AdaptiveConfig). Gains then names
	// the *design* gains the scale multiplies.
	Adaptive *AdaptiveConfig
	// DeadbandFrac is the upper tracking-error deadband as a fraction of
	// island max power (default 0.045 — about half the power gap between
	// adjacent DVFS levels). With a quantized actuator, integral action on
	// an error smaller than one level step can correct produces a
	// permanent limit cycle between the two bracketing levels; inside the
	// band the controller holds its level and freezes the integrator. The
	// band is asymmetric (this is a power *cap*): undershoot up to the full
	// band is held, overshoot only up to a third of it. Targets that land
	// in neither level's hold window dither between the two bracketing
	// levels by design — bounded, and preferable to ignoring sub-quantum
	// budget changes, which a hold window wider than the level quantum
	// would cause. Negative disables the deadband.
	DeadbandFrac float64

	// explicit marks a Config that came from DefaultConfig: New takes its
	// fields literally instead of applying the legacy zero-value defaulting,
	// so all-zero Gains and DeadbandFrac == 0 are honoured as written. A
	// zero-literal Config keeps the historical defaulting behaviour.
	explicit bool
}

// DefaultDeadbandFrac is the deadband New applies on the legacy zero-value
// Config path — about half the power gap between adjacent DVFS levels.
const DefaultDeadbandFrac = 0.045

// DefaultConfig returns a Config pre-filled with the package defaults
// (PaperGains, no smoothing, DefaultDeadbandFrac) and marked explicit:
// every field a caller then overwrites — including zero values such as
// all-zero Gains (no control action) or DeadbandFrac 0 (deadband disabled,
// like any negative value) — is taken literally by New. This resolves the
// zero-value ambiguity of literal Configs, where those settings were
// silently replaced by the defaults and could not be requested at all.
func DefaultConfig() Config {
	return Config{
		Gains:        control.PaperGains,
		SmoothAlpha:  1,
		DeadbandFrac: DefaultDeadbandFrac,
		explicit:     true,
	}
}

// Controller is one island's PIC. Not safe for concurrent use.
type Controller struct {
	cfg   Config
	pid   *control.PID
	fNorm float64
	// targetFrac is the provisioned budget as a fraction of island max.
	targetFrac float64
	// ema is the smoothed feedback estimate; primed on first measurement.
	ema       float64
	emaPrimed bool
	// lastLevel is the DVFS level the controller most recently applied —
	// the level the incoming measurement was taken at.
	lastLevel int
	// ad is the adaptive-gain state; nil for fixed-gain controllers.
	ad *adaptiveState

	invokeHooks []func(targetFrac, estFrac float64, level int)
}

// AddInvokeHook subscribes a callback invoked after every Invoke with the
// island's target fraction, the (smoothed) feedback power estimate, and the
// chosen DVFS level — the pic-layer attachment point for fine-grained
// tracking observers. Hooks accumulate, so independent observers
// (telemetry, tests) can subscribe to the same controller. A nil hook is
// ignored. Not safe to call concurrently with Invoke.
func (c *Controller) AddInvokeHook(fn func(targetFrac, estFrac float64, level int)) {
	if fn != nil {
		c.invokeHooks = append(c.invokeHooks, fn)
	}
}

// New builds a controller starting from the given initial DVFS level.
func New(cfg Config, initialLevel int) (*Controller, error) {
	if cfg.Table == nil {
		return nil, errors.New("pic: nil DVFS table")
	}
	if cfg.IslandMaxW <= 0 {
		return nil, errors.New("pic: non-positive island max power")
	}
	if !cfg.explicit {
		// Legacy zero-value defaulting for literal Configs. Configs from
		// DefaultConfig skip this: their fields are explicit requests.
		if cfg.Gains == (control.Gains{}) {
			cfg.Gains = control.PaperGains
		}
		if cfg.SmoothAlpha <= 0 {
			cfg.SmoothAlpha = 1
		}
		if cfg.DeadbandFrac == 0 {
			cfg.DeadbandFrac = DefaultDeadbandFrac
		}
	}
	if cfg.SmoothAlpha < 0 {
		return nil, errors.New("pic: negative SmoothAlpha")
	}
	if cfg.SmoothAlpha > 1 {
		cfg.SmoothAlpha = 1
	}
	pid := control.NewPID(cfg.Gains.KP, cfg.Gains.KI, cfg.Gains.KD)
	// Bound the integral accumulator: the tracking error is at most 1 in
	// island-fraction units, so a few units of headroom cover any
	// legitimate transient without allowing unbounded windup.
	pid.IntMin, pid.IntMax = -3, 3
	c := &Controller{cfg: cfg, pid: pid, lastLevel: cfg.Table.ClampLevel(initialLevel)}
	op := cfg.Table.Point(c.lastLevel)
	c.fNorm = cfg.Table.NormFreq(op.FreqMHz)
	if cfg.Adaptive != nil {
		ad, err := newAdaptiveState(*cfg.Adaptive, cfg.Gains)
		if err != nil {
			return nil, err
		}
		c.ad = ad
	}
	return c, nil
}

// SetTargetWatts installs the GPM-provisioned power budget. The controller
// state (integrator, frequency target) carries across budget changes, as a
// budget update is a reference step, not a restart.
//
// Non-finite budgets are ignored and the previous target held: a NaN or
// ±Inf target would otherwise poison the tracking error — and through it
// the integrator and EMA — permanently, since every comparison against NaN
// is false and no later finite budget can flush the accumulated state.
func (c *Controller) SetTargetWatts(w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	f := w / c.cfg.IslandMaxW
	if f < 0 {
		f = 0
	}
	c.targetFrac = f
}

// TargetWatts returns the current budget in watts.
func (c *Controller) TargetWatts() float64 { return c.targetFrac * c.cfg.IslandMaxW }

// TargetFrac returns the current budget as a fraction of island max power.
func (c *Controller) TargetFrac() float64 { return c.targetFrac }

// Invoke runs one controller invocation. meanUtil is the island's measured
// utilization; oraclePowerW is the measured island power, used only in the
// UseOraclePower ablation. It returns the DVFS level the actuator should
// apply for the next interval.
func (c *Controller) Invoke(meanUtil, oraclePowerW float64) int {
	lvl := c.invoke(meanUtil, oraclePowerW)
	for _, h := range c.invokeHooks {
		h(c.targetFrac, c.ema, lvl)
	}
	return lvl
}

// invoke is the hook-free controller invocation.
func (c *Controller) invoke(meanUtil, oraclePowerW float64) int {
	var estFrac float64
	if c.cfg.UseOraclePower {
		estFrac = oraclePowerW / c.cfg.IslandMaxW
	} else {
		estFrac = c.cfg.Transducer.EstimatePowerFrac(meanUtil, c.lastLevel)
	}
	if !c.emaPrimed {
		c.ema = estFrac
		c.emaPrimed = true
	} else {
		c.ema = c.cfg.SmoothAlpha*estFrac + (1-c.cfg.SmoothAlpha)*c.ema
	}
	// Adaptive mode: fold the fresh measurement into the plant-gain
	// estimate (and possibly rescale the gains) before the PID acts on it.
	if c.ad != nil {
		c.adaptUpdate(c.ema)
	}
	e := c.targetFrac - c.ema

	// Quantization deadband: an error no single level step can correct
	// would only feed a permanent limit cycle between the two levels
	// bracketing the target; inside the (asymmetric, cap-biased) band the
	// controller holds its level, freezes the integrator and keeps the
	// frequency state inside the level's capture region so no windup
	// builds up while holding.
	if c.cfg.DeadbandFrac > 0 && e < c.cfg.DeadbandFrac && e > -c.cfg.DeadbandFrac/3 {
		c.pid.Frozen = true
		c.pid.Update(e)
		c.clampToCapture()
		if c.ad != nil {
			c.adaptShift()
		}
		return c.lastLevel
	}

	// Actuator anti-windup: when the frequency target is pinned at either
	// end of the table and the error pushes further out, freeze the
	// integrator so it cannot wind up against the rail.
	c.pid.Frozen = (c.fNorm >= 1 && e > 0) || (c.fNorm <= 0 && e < 0)
	d := c.pid.Update(e)

	c.fNorm += d
	if c.fNorm < 0 {
		c.fNorm = 0
	}
	if c.fNorm > 1 {
		c.fNorm = 1
	}
	c.lastLevel = c.cfg.Table.NearestLevel(c.cfg.Table.DenormFreq(c.fNorm))
	if c.ad != nil {
		c.adaptShift()
	}
	return c.lastLevel
}

// clampToCapture keeps the continuous frequency state inside the current
// level's capture region, so a held integrator cannot silently drift the
// quantized command by more than one step once the hold releases.
func (c *Controller) clampToCapture() {
	t := c.cfg.Table
	if t.Levels() < 2 {
		// A single-level table has one capture region covering the whole
		// axis; the general half-width formula would divide by zero and
		// clamp fNorm to ±Inf bounds, poisoning the frequency state.
		return
	}
	f := t.NormFreq(t.Point(c.lastLevel).FreqMHz)
	half := 0.5 / float64(t.Levels()-1)
	if c.fNorm < f-half {
		c.fNorm = f - half
	}
	if c.fNorm > f+half {
		c.fNorm = f + half
	}
}

// FreqNorm returns the controller's continuous normalized frequency state
// (before quantization), exposed for tests and telemetry.
func (c *Controller) FreqNorm() float64 { return c.fNorm }

// Integrator returns the PID's current integral accumulator, exposed for
// the anti-windup invariant check (internal/check.PIDBounds) and telemetry.
func (c *Controller) Integrator() float64 { return c.pid.Integral() }

// IntegratorBounds returns the anti-windup clamp the controller was built
// with (lo < hi always holds for controllers from New).
func (c *Controller) IntegratorBounds() (lo, hi float64) {
	return c.pid.IntMin, c.pid.IntMax
}

// Reset returns the controller to its just-constructed condition at the
// given initial DVFS level (clamped into the table), for experiments that
// restart an epoch. Every piece of dynamic state is cleared: the PID's
// integrator and derivative memory, the measurement EMA and its primed
// flag, the continuous frequency state, the last applied level, and the
// provisioned target. An earlier version cleared only the PID, so the
// EMA, frequency state, level and target all leaked into the "restarted"
// epoch; install hooks are observers, not state, and survive a Reset.
func (c *Controller) Reset(initialLevel int) {
	c.pid.Reset()
	c.pid.Frozen = false
	c.ema = 0
	c.emaPrimed = false
	c.targetFrac = 0
	c.lastLevel = c.cfg.Table.ClampLevel(initialLevel)
	c.fNorm = c.cfg.Table.NormFreq(c.cfg.Table.Point(c.lastLevel).FreqMHz)
	if c.ad != nil {
		c.ad.reset()
		c.pid.KP, c.pid.KI, c.pid.KD = c.ad.base.KP, c.ad.base.KI, c.ad.base.KD
	}
}
