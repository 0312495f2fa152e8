// Package check is the run-long invariant subsystem: a library of
// composable observers that plug into engine.Session and machine-check the
// physical and control-theoretic properties the paper's whole argument
// rests on — the GPM never provisions more than the budget and island power
// settles under its provision (§II-C), every actuated operating point is a
// legal entry of the island's DVFS table (§II-B), the PID respects its
// anti-windup clamp and actuator range (§II-D, Eq. 7), temperatures stay
// inside the RC thermal model's operating envelope (Fig. 18), instruction
// and energy accounting are conserved, and the whole per-interval state
// series is deterministic (hashable, replayable).
//
// Unlike the scenario tests that sample these properties at a handful of
// points, a check.Suite rides along with the run and examines *every*
// interval and epoch, the way hardware-in-the-loop validation traces do.
// Violations carry structured context (interval, island, observed value vs.
// bound) and accumulate into a report; All(cfg) wires the standard suite,
// ForChip derives the configuration from a simulator instance, and
// ForCPMWithConfig adds the managed run's PIC checks.
//
// On top of the invariant library, the package provides a golden-trace
// regression harness (Golden, Trace, the canonical Scenarios): compact
// hashed traces of canonical runs are stored under testdata/golden and
// compared on every test run, so any behavioural drift — an accidental
// change to the power model, the PID, the provisioning policy — fails
// tier-1 tests before it reaches a figure reproduction.
package check

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/thermal"
)

// Violation is one observed invariant breach with its full context.
type Violation struct {
	// Check names the invariant ("budget-conservation", "dvfs-legality",
	// ...).
	Check string
	// Interval is the step index the violation was observed at, -1 for
	// epoch- or run-level violations.
	Interval int
	// Epoch is the measured-epoch index, -1 for interval- or run-level
	// violations.
	Epoch int
	// Island is the island index, -1 for chip-level violations.
	Island int
	// Observed and Bound are the offending value and the limit it broke.
	Observed float64
	// Bound is the limit the observation violated.
	Bound float64
	// Msg describes the broken invariant.
	Msg string
}

// String renders the violation with its context.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", v.Check)
	if v.Interval >= 0 {
		fmt.Fprintf(&b, " interval %d", v.Interval)
	}
	if v.Epoch >= 0 {
		fmt.Fprintf(&b, " epoch %d", v.Epoch)
	}
	if v.Island >= 0 {
		fmt.Fprintf(&b, " island %d", v.Island)
	}
	fmt.Fprintf(&b, ": %s (observed %.6g, bound %.6g)", v.Msg, v.Observed, v.Bound)
	return b.String()
}

// Check is one invariant observer: an engine.Observer that accumulates the
// violations it finds.
type Check interface {
	engine.Observer
	// Name identifies the invariant in reports.
	Name() string
	// Violations returns the breaches found so far (nil when clean).
	Violations() []Violation
}

// maxViolationsPerCheck caps accumulation so a systematically broken run
// (every interval violating) cannot grow memory without bound; the count of
// dropped violations is still tracked.
const maxViolationsPerCheck = 64

// recorder is the shared violation-accumulation base embedded by every
// checker.
type recorder struct {
	name    string
	vs      []Violation
	dropped int
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) Violations() []Violation { return r.vs }

func (r *recorder) report(v Violation) {
	v.Check = r.name
	if len(r.vs) >= maxViolationsPerCheck {
		r.dropped++
		return
	}
	r.vs = append(r.vs, v)
}

// Suite bundles checks behind a single engine.Observer, fanning every event
// out to each member and aggregating their findings.
type Suite struct {
	checks []Check
}

// Add appends further checks (e.g. a Golden recorder next to All's suite).
func (s *Suite) Add(checks ...Check) { s.checks = append(s.checks, checks...) }

// Checks returns the member checks.
func (s *Suite) Checks() []Check { return s.checks }

// RunStart implements engine.Observer.
func (s *Suite) RunStart(info engine.RunInfo) {
	for _, c := range s.checks {
		c.RunStart(info)
	}
}

// ObserveStep implements engine.Observer.
func (s *Suite) ObserveStep(st engine.Step) {
	for _, c := range s.checks {
		c.ObserveStep(st)
	}
}

// ObserveEpoch implements engine.Observer.
func (s *Suite) ObserveEpoch(e engine.Epoch) {
	for _, c := range s.checks {
		c.ObserveEpoch(e)
	}
}

// RunEnd implements engine.Observer.
func (s *Suite) RunEnd(sum *engine.Summary) {
	for _, c := range s.checks {
		c.RunEnd(sum)
	}
}

// RunResumed implements engine.ResumeAware, forwarding to every member
// check that cares (e.g. Accounting, whose whole-window reconciliation
// cannot hold when the suite only observed the run's tail).
func (s *Suite) RunResumed(completedIntervals int) {
	for _, c := range s.checks {
		if ra, ok := c.(engine.ResumeAware); ok {
			ra.RunResumed(completedIntervals)
		}
	}
}

// Violations returns every member check's findings, in check order.
func (s *Suite) Violations() []Violation {
	var out []Violation
	for _, c := range s.checks {
		out = append(out, c.Violations()...)
	}
	return out
}

// Err returns nil when every check is clean, otherwise an error summarising
// the first violations (all of them when few, elided when many).
func (s *Suite) Err() error {
	vs := s.Violations()
	if len(vs) == 0 {
		return nil
	}
	const show = 5
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", len(vs))
	for i, v := range vs {
		if i == show {
			fmt.Fprintf(&b, "\n  ... and %d more", len(vs)-show)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Report renders a human-readable violation report ("all invariants held"
// when clean), listing per-check status.
func (s *Suite) Report() string {
	var b strings.Builder
	for _, c := range s.checks {
		vs := c.Violations()
		if len(vs) == 0 {
			fmt.Fprintf(&b, "%-22s ok\n", c.Name())
			continue
		}
		fmt.Fprintf(&b, "%-22s %d violation(s)\n", c.Name(), len(vs))
		for _, v := range vs {
			fmt.Fprintf(&b, "  %s\n", v.String())
		}
	}
	return b.String()
}

// Config parameterizes the standard suite. ForChip fills it from a live
// simulator instance; zero fields disable the checks that need them.
type Config struct {
	// Tables are the per-island DVFS tables: every operating point island
	// i actuates must belong to Tables[i]. nil disables DVFSLegality.
	Tables []*power.DVFSTable
	// BudgetW is the chip power budget; 0 disables BudgetConservation.
	BudgetW float64
	// IslandMaxW are the per-island maximum powers, used to scale the
	// island-level budget tolerance (quantized actuators cannot hold an
	// arbitrary power, so the slack is a fraction of island max, not of
	// the allocation).
	IslandMaxW []float64
	// MaxChipPowerW bounds chip power and anchors ChipPowerFrac
	// consistency; 0 skips those sub-checks.
	MaxChipPowerW float64
	// Thermal is the RC model configuration the envelope is derived from.
	Thermal thermal.Config
	// MaxCorePowerW is the largest per-core dissipation the thermal
	// envelope assumes; 0 disables ThermalEnvelope.
	MaxCorePowerW float64
	// BudgetTolFrac is the chip-level relative overshoot tolerance
	// (default 0.05: the worst post-settle epoch may exceed the budget by
	// 5%, looser than the paper's steady-state claim but tight enough to
	// catch a broken loop immediately).
	BudgetTolFrac float64
	// IslandTolFrac is the island-level tolerance as a fraction of island
	// max power (default 0.08: roughly half the inter-level power quantum,
	// the best a quantized actuator with the PIC's asymmetric deadband can
	// guarantee).
	IslandTolFrac float64
}

// settleEpochs is the number of initial measured epochs the budget check
// skips — the paper's own settling transient (≤ 6 PIC invocations per
// §II-D, well under one epoch, but GPM reallocation needs a few epochs to
// converge).
const settleEpochs = 3

func (c Config) budgetTol() float64 {
	if c.BudgetTolFrac <= 0 {
		return 0.05
	}
	return c.BudgetTolFrac
}

func (c Config) islandTol() float64 {
	if c.IslandTolFrac <= 0 {
		return 0.08
	}
	return c.IslandTolFrac
}

// All wires the standard invariant suite for cfg: budget conservation,
// DVFS legality, thermal envelope and accounting conservation. Checks
// whose configuration is absent are omitted, so All is safe for unmanaged
// and baseline runs too. The state-series digest is the golden recorder's
// (NewGolden), not the suite's.
func All(cfg Config) *Suite {
	s := &Suite{}
	if cfg.BudgetW > 0 {
		s.Add(NewBudgetConservation(cfg))
	}
	if cfg.Tables != nil {
		s.Add(NewDVFSLegality(cfg.Tables))
	}
	if cfg.MaxCorePowerW > 0 {
		s.Add(NewThermalEnvelope(cfg.Thermal, cfg.MaxCorePowerW))
	}
	s.Add(NewAccounting(cfg.MaxChipPowerW))
	return s
}
