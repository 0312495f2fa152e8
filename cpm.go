// Package cpm is the public facade of the CPM reproduction: Coordinated
// Power Management in Chip-Multiprocessors (Mishra, Srikantaiah, Kandemir,
// Das — SC 2010), reimplemented as a Go library together with the full
// simulation substrate its evaluation needs.
//
// The paper's architecture is a two-tier feedback controller for a CMP
// organized as voltage/frequency islands:
//
//   - a Global Power Manager (GPM) provisions the chip power budget across
//     islands every 50 ms according to a pluggable policy
//     (performance-aware, thermal-aware, variation-aware), and
//   - a Per-Island Controller (PIC) — a PID designed by pole placement on
//     the identified plant P(z) = a/(z−1) — caps each island at its
//     provision every 2.5 ms by actuating the island's shared DVFS knob.
//
// Typical use mirrors the paper's methodology:
//
//	cfg := cpm.DefaultConfig(cpm.Mix1())      // Table I chip, Mix-1 workload
//	cal, _ := cpm.Calibrate(cfg, 60, 240)     // §II-D system identification
//	chip, _ := cpm.NewChip(cfg)
//	ctl, _ := cpm.NewController(chip, cpm.ControllerConfig{
//	    BudgetW:     cal.BudgetW(0.8),        // cap at 80% of demand
//	    Transducers: cal.Transducers,
//	})
//	for i := 0; i < 400; i++ {
//	    r := ctl.Step()                        // one 2.5 ms PIC interval
//	    _ = r.Sim.ChipPowerW
//	}
//
// Every data table and figure of the paper's evaluation can be regenerated
// with the cpmsim command or the Experiments registry; see DESIGN.md for
// the experiment index and EXPERIMENTS.md for measured-vs-paper results.
package cpm

import (
	"io"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/sensor"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Chip is a simulated voltage/frequency-island CMP (the substrate the
// original evaluation ran on Simics+GEMS+Wattch+HotLeakage).
type Chip = sim.CMP

// ChipConfig describes a chip instance: workload mix, microarchitecture,
// power/thermal models, interval length and executor choice.
type ChipConfig = sim.Config

// Controller is the two-tier CPM instance coupling a GPM and per-island
// PICs to a Chip.
type Controller = core.CPM

// ControllerConfig parameterizes the controller: budget, policy, PID gains
// and calibrated transducers.
type ControllerConfig = core.Config

// Calibration is the §II-D offline system-identification result.
type Calibration = core.Calibration

// StepResult is one managed interval's outcome.
type StepResult = core.StepResult

// Mix assigns benchmarks to cores and defines the island structure.
type Mix = workload.Mix

// Policy decides per-island power provisions at each GPM invocation.
type Policy = gpm.Policy

// PerformanceAware is the Equations 4–6 throughput-maximizing policy.
type PerformanceAware = gpm.PerformanceAware

// ThermalAware wraps a base policy with hotspot constraints (Figure 18).
type ThermalAware = gpm.ThermalAware

// VariationAware is the greedy energy-per-instruction policy of §IV-B.
type VariationAware = gpm.VariationAware

// Gains are PID design parameters; PaperGains is (0.4, 0.4, 0.3).
type Gains = control.Gains

// Estimator converts run-time observables into island power estimates.
type Estimator = sensor.Estimator

// VariationMap assigns per-core leakage multipliers.
type VariationMap = variation.Map

// PaperGains are the §II-D PID design parameters.
var PaperGains = control.PaperGains

// DefaultConfig returns the paper's Table I chip configuration for a mix.
func DefaultConfig(mix Mix) ChipConfig { return sim.DefaultConfig(mix) }

// NewChip builds a simulated CMP.
func NewChip(cfg ChipConfig) (*Chip, error) { return sim.New(cfg) }

// NewController wires the two-tier controller over a chip.
func NewController(chip *Chip, cfg ControllerConfig) (*Controller, error) {
	return core.New(chip, cfg)
}

// Calibrate performs the offline system identification of §II-D.
func Calibrate(cfg ChipConfig, warm, measure int) (Calibration, error) {
	return core.Calibrate(cfg, warm, measure)
}

// Mix1 is Table III(a): four islands each pairing a CPU-bound with a
// memory-bound PARSEC application.
func Mix1() Mix { return workload.Mix1() }

// Mix2 is Table III(b): homogeneous islands.
func Mix2() Mix { return workload.Mix2() }

// Mix3 is Table III(c) for 16 cores (replicas=1) or 32 cores (replicas=2).
func Mix3(replicas int) Mix { return workload.Mix3(replicas) }

// ThermalMix is the Figure 18 assignment: eight single-core islands running
// CPU-bound SPEC workloads.
func ThermalMix() Mix { return workload.ThermalMix() }

// PaperVariation returns the §IV-B intra-die leakage assumption for
// four-island chips: 1.2×/1.5×/2×/1× by island.
func PaperVariation(coresPerIsland int) VariationMap {
	return variation.PaperIslands(coresPerIsland)
}

// TraceSet is a recorded per-core workload trace (see RecordTraces and
// NewReplayChip): frequency-independent interval records that replay under
// any controller or DVFS trajectory.
type TraceSet = uarch.TraceSet

// FaultPlan injects sensor/actuator faults into a managed run
// (ControllerConfig.Faults) for robustness studies.
type FaultPlan = core.FaultPlan

// EnergyAware is the energy-minimizing policy with a performance floor that
// §II-C sketches.
type EnergyAware = gpm.EnergyAware

// RecordTraces samples the first n intervals of cfg's workload: the records
// a NewChip(cfg) chip consumes under any controller.
func RecordTraces(cfg ChipConfig, n int) (TraceSet, error) { return sim.RecordTraces(cfg, n) }

// NewReplayChip builds a chip that replays set instead of sampling its
// workload; each core wraps to the start of its trace when it runs out.
func NewReplayChip(cfg ChipConfig, set TraceSet) (*Chip, error) { return sim.NewReplay(cfg, set) }

// SaveTraces serializes a recorded TraceSet.
func SaveTraces(w io.Writer, set TraceSet) error { return uarch.SaveTraces(w, set) }

// LoadTraces deserializes a TraceSet.
func LoadTraces(r io.Reader) (TraceSet, error) { return uarch.LoadTraces(r) }

// --- run engine --------------------------------------------------------------
//
// The engine unifies every run loop in the repository: a Runner adapts a
// steppable system (managed chip, unmanaged chip, MaxBIPS baseline) to a
// uniform per-interval Step, a Session drives it through warmup and a
// measurement window into a Summary, Observers hook the run at interval,
// epoch and lifecycle granularity, and a Pool executes independent Sessions
// concurrently with deterministic, ordered results.

// Runner adapts one steppable system to the engine.
type Runner = engine.Runner

// Observer receives engine events; Session fans them out during Run.
type Observer = engine.Observer

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped.
type ObserverFuncs = engine.Funcs

// Session drives a Runner through warmup and measurement.
type Session = engine.Session

// SessionConfig shapes one run (warmup, window, budget, what to keep).
type SessionConfig = engine.SessionConfig

// Summary aggregates one run's measurement window.
type Summary = engine.Summary

// EngineStep is the unified per-interval observation delivered to
// observers (named to keep the facade's StepResult for the controller's
// own step type).
type EngineStep = engine.Step

// EpochEvent summarises one GPM epoch for observers.
type EpochEvent = engine.Epoch

// RunInfo describes a run at RunStart.
type RunInfo = engine.RunInfo

// Pool executes independent jobs on a bounded worker pool, returning
// results in job order.
type Pool = engine.Pool

// NewSession validates the configuration and binds runner and observers.
func NewSession(r Runner, cfg SessionConfig, obs ...Observer) (*Session, error) {
	return engine.NewSession(r, cfg, obs...)
}

// NewManagedRunner adapts a CPM controller to the engine.
func NewManagedRunner(ctl *Controller) Runner { return engine.NewCPMRunner(ctl) }

// NewUnmanagedRunner adapts a raw chip to the engine.
func NewUnmanagedRunner(chip *Chip) Runner { return engine.NewChipRunner(chip) }

// JobSeed derives a per-job seed for pooled batch runs: deterministic in
// (base, job index) and decorrelated across jobs.
func JobSeed(base uint64, job int) uint64 { return engine.JobSeed(base, job) }

// Degradation returns run's throughput loss vs baseline as a fraction in
// [0, 1], guarding degenerate (zero-instruction) baselines.
func Degradation(run, baseline Summary) float64 { return engine.Degradation(run, baseline) }
