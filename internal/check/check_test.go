package check

import (
	"fmt"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/thermal"
)

// step builds a synthetic two-island step with self-consistent accounting
// (chip aggregates equal island sums, BIPS matches instructions at a 0.002 s
// interval, frequencies are PentiumM table points).
func step(idx int) engine.Step {
	const intervalSec = 0.002
	mk := func(island, level int, freqMHz, powerW, instr float64) sim.IslandResult {
		return sim.IslandResult{
			Island: island, Level: level, FreqMHz: freqMHz,
			PowerW: powerW, Instructions: instr,
			BIPS: instr / intervalSec / 1e9,
		}
	}
	a := mk(0, 7, 2000, 10, 4e6)
	b := mk(1, 0, 600, 3, 1e6)
	return engine.Step{
		Index: idx,
		Sim: sim.Result{
			Interval:   idx,
			Islands:    []sim.IslandResult{a, b},
			ChipPowerW: a.PowerW + b.PowerW,
			TotalBIPS:  a.BIPS + b.BIPS,
			MaxTempC:   55,
		},
	}
}

func runInfo() engine.RunInfo {
	return engine.RunInfo{Islands: 2, Cores: 4, Period: 20, MeasureIntervals: 40, IntervalSec: 0.002}
}

// pentiumMTables are runInfo's two islands' DVFS tables.
func pentiumMTables() []*power.DVFSTable {
	return []*power.DVFSTable{power.PentiumM(), power.PentiumM()}
}

func TestViolationString(t *testing.T) {
	v := Violation{Check: "budget-conservation", Interval: 3, Epoch: -1, Island: 1,
		Observed: 12.5, Bound: 10, Msg: "over budget"}
	s := v.String()
	for _, want := range []string{"budget-conservation", "interval 3", "island 1", "over budget", "12.5", "10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "epoch") {
		t.Errorf("String() = %q mentions epoch for an interval-level violation", s)
	}
}

func TestSuiteErrAndReport(t *testing.T) {
	s := All(Config{})
	if err := s.Err(); err != nil {
		t.Fatalf("empty suite reported violations: %v", err)
	}
	if rep := s.Report(); !strings.Contains(rep, "ok") {
		t.Errorf("clean report lacks ok lines: %q", rep)
	}
	// Inject violations through a member check and confirm aggregation.
	acc := NewAccounting(0)
	s.Add(acc)
	for i := 0; i < maxViolationsPerCheck+10; i++ {
		acc.report(Violation{Interval: i, Epoch: -1, Island: -1, Msg: "synthetic"})
	}
	if got := len(acc.Violations()); got != maxViolationsPerCheck {
		t.Errorf("violation cap not applied: %d recorded", got)
	}
	if acc.dropped != 10 {
		t.Errorf("dropped = %d, want 10", acc.dropped)
	}
	err := s.Err()
	if err == nil {
		t.Fatal("Err() nil with violations present")
	}
	if !strings.Contains(err.Error(), "and 59 more") {
		t.Errorf("Err() does not elide: %v", err)
	}
}

func TestAllGatesOnConfig(t *testing.T) {
	names := func(s *Suite) map[string]bool {
		out := map[string]bool{}
		for _, c := range s.Checks() {
			out[c.Name()] = true
		}
		return out
	}
	minimal := names(All(Config{}))
	if minimal["budget-conservation"] || minimal["dvfs-legality"] || minimal["thermal-envelope"] {
		t.Errorf("zero config enabled gated checks: %v", minimal)
	}
	if !minimal["accounting"] {
		t.Errorf("zero config missing unconditional checks: %v", minimal)
	}
	full := names(All(Config{Tables: pentiumMTables(), BudgetW: 50, MaxCorePowerW: 12, Thermal: thermal.DefaultConfig()}))
	for _, n := range []string{"budget-conservation", "dvfs-legality", "thermal-envelope", "accounting"} {
		if !full[n] {
			t.Errorf("full config missing %s: %v", n, full)
		}
	}
}

func TestBudgetConservation(t *testing.T) {
	cfg := Config{BudgetW: 50, IslandMaxW: []float64{24, 24}}
	c := NewBudgetConservation(cfg)
	c.RunStart(runInfo())

	good := step(0)
	good.GPMInvoked = true
	good.AllocW = []float64{30, 20}
	c.ObserveStep(good)
	if len(c.Violations()) != 0 {
		t.Fatalf("clean provision flagged: %v", c.Violations())
	}

	over := step(1)
	over.GPMInvoked = true
	over.AllocW = []float64{30, 21}
	c.ObserveStep(over)
	neg := step(2)
	neg.GPMInvoked = true
	neg.AllocW = []float64{-1, 20}
	c.ObserveStep(neg)
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("want 2 step violations (oversubscribe, negative), got %d: %v", got, c.Violations())
	}

	// Epoch tier: pre-settle epochs are ignored, post-settle overshoot is not.
	pre := engine.Epoch{Index: 0, MeanPowerW: 80, BudgetW: 50}
	c.ObserveEpoch(pre)
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("pre-settle epoch flagged: %v", c.Violations())
	}
	post := engine.Epoch{Index: 3, MeanPowerW: 55, BudgetW: 50,
		AllocW: []float64{30, 20}, IslandPowerW: []float64{33, 22}}
	c.ObserveEpoch(post)
	vs := c.Violations()
	if got := len(vs); got != 5 {
		t.Fatalf("want 5 violations after post-settle epoch (chip over, both islands over), got %d:\n%v", got, vs)
	}
	okEpoch := engine.Epoch{Index: 4, MeanPowerW: 49, BudgetW: 50,
		AllocW: []float64{30, 20}, IslandPowerW: []float64{30.5, 20.1}}
	c.ObserveEpoch(okEpoch)
	if got := len(c.Violations()); got != 5 {
		t.Fatalf("within-tolerance epoch flagged: %v", c.Violations()[5:])
	}
}

func TestDVFSLegality(t *testing.T) {
	c := NewDVFSLegality(pentiumMTables())
	c.RunStart(runInfo())
	c.ObserveStep(step(0))
	if len(c.Violations()) != 0 {
		t.Fatalf("legal step flagged: %v", c.Violations())
	}

	// Off-table frequency.
	bad := step(1)
	bad.Sim.Islands[0].FreqMHz = 1234
	c.ObserveStep(bad)
	if got := len(c.Violations()); got == 0 || !strings.Contains(c.Violations()[0].Msg, "not a table operating point") {
		t.Fatalf("off-table frequency not caught: %v", c.Violations())
	}
	n := len(c.Violations())

	// Level/frequency disagreement.
	lie := step(2)
	lie.Sim.Islands[1].Level = 3 // still reports 600 MHz
	c.ObserveStep(lie)
	if got := len(c.Violations()); got <= n {
		t.Fatal("level/frequency disagreement not caught")
	}
	n = len(c.Violations())

	// Frequency change without the transition flag.
	c2 := NewDVFSLegality(pentiumMTables())
	c2.RunStart(runInfo())
	c2.ObserveStep(step(0))
	moved := step(1)
	moved.Sim.Islands[0].Level = 0
	moved.Sim.Islands[0].FreqMHz = 600
	moved.Sim.Islands[0].Transitioned = false
	c2.ObserveStep(moved)
	found := false
	for _, v := range c2.Violations() {
		if strings.Contains(v.Msg, "transition overhead") {
			found = true
		}
	}
	if !found {
		t.Fatalf("silent operating-point change not caught: %v", c2.Violations())
	}

	// Same change with the flag set is legal.
	c3 := NewDVFSLegality(pentiumMTables())
	c3.RunStart(runInfo())
	c3.ObserveStep(step(0))
	moved.Sim.Islands[0].Transitioned = true
	c3.ObserveStep(moved)
	if len(c3.Violations()) != 0 {
		t.Fatalf("flagged transition flagged as violation: %v", c3.Violations())
	}
}

func TestThermalEnvelope(t *testing.T) {
	tc := thermal.DefaultConfig()
	c := NewThermalEnvelope(tc, 12)
	c.RunStart(runInfo())
	c.ObserveStep(step(0))
	if len(c.Violations()) != 0 {
		t.Fatalf("plausible temperature flagged: %v", c.Violations())
	}

	cases := []struct {
		name string
		temp float64
		want string
	}{
		{"nan", nan(), "non-finite"},
		{"below-ambient", tc.AmbientC - 5, "below ambient"},
		{"runaway", tc.MaxSteadyTempC(1.25*12) + 50, "above steady-state envelope"},
	}
	for _, cse := range cases {
		cc := NewThermalEnvelope(tc, 12)
		cc.RunStart(runInfo())
		st := step(0)
		st.Sim.MaxTempC = cse.temp
		cc.ObserveStep(st)
		if vs := cc.Violations(); len(vs) == 0 || !strings.Contains(vs[0].Msg, cse.want) {
			t.Errorf("%s: want violation containing %q, got %v", cse.name, cse.want, vs)
		}
	}

	// Step-delta check: an instantaneous jump far beyond what the RC time
	// constant allows in one interval.
	cc := NewThermalEnvelope(tc, 12)
	cc.RunStart(runInfo())
	st := step(0)
	st.Sim.MaxTempC = tc.AmbientC + 1
	cc.ObserveStep(st)
	st2 := step(1)
	st2.Sim.MaxTempC = tc.AmbientC + 30
	cc.ObserveStep(st2)
	found := false
	for _, v := range cc.Violations() {
		if strings.Contains(v.Msg, "exceeds RC dynamics") {
			found = true
		}
	}
	if !found {
		t.Fatalf("implausible step delta not caught: %v", cc.Violations())
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestAccounting(t *testing.T) {
	c := NewAccounting(100)
	info := runInfo()
	c.RunStart(info)
	st := step(0)
	st.Sim.ChipPowerFrac = st.Sim.ChipPowerW / 100
	st.Measured = true
	c.ObserveStep(st)
	if len(c.Violations()) != 0 {
		t.Fatalf("consistent step flagged: %v", c.Violations())
	}

	// Chip power not equal to island sum.
	leak := step(1)
	leak.Sim.ChipPowerFrac = leak.Sim.ChipPowerW / 100
	leak.Sim.ChipPowerW += 0.5
	c.ObserveStep(leak)
	found := func(sub string) bool {
		for _, v := range c.Violations() {
			if strings.Contains(v.Msg, sub) {
				return true
			}
		}
		return false
	}
	if !found("sum of island powers") {
		t.Fatalf("power conservation breach not caught: %v", c.Violations())
	}

	// BIPS/instruction disagreement.
	c2 := NewAccounting(0)
	c2.RunStart(info)
	wrong := step(0)
	wrong.Sim.Islands[0].BIPS *= 1.01
	wrong.Sim.TotalBIPS = wrong.Sim.Islands[0].BIPS + wrong.Sim.Islands[1].BIPS
	c2.ObserveStep(wrong)
	ok := false
	for _, v := range c2.Violations() {
		if strings.Contains(v.Msg, "disagrees with instructions") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("BIPS relation breach not caught: %v", c2.Violations())
	}

	// Interval counter skip.
	c3 := NewAccounting(0)
	c3.RunStart(info)
	c3.ObserveStep(step(0))
	skipped := step(2) // interval 2 right after 0
	c3.ObserveStep(skipped)
	ok = false
	for _, v := range c3.Violations() {
		if strings.Contains(v.Msg, "counter skipped") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("interval skip not caught: %v", c3.Violations())
	}

	// Summary disagreement at RunEnd.
	c4 := NewAccounting(0)
	c4.RunStart(info)
	m := step(0)
	m.Measured = true
	c4.ObserveStep(m)
	c4.ObserveEpoch(engine.Epoch{Index: 0, Instructions: 5e6})
	badSum := &engine.Summary{MeanPowerW: 99, Instructions: 1, Epochs: []float64{1, 2}}
	c4.RunEnd(badSum)
	if got := len(c4.Violations()); got != 3 {
		t.Fatalf("want 3 summary violations (power, instructions, epoch count), got %d: %v", got, c4.Violations())
	}
}

// TestGoldenFinalDigestSensitivity pins what the final digest covers: the
// same input reproduces it, and a relative 1e-12 change to any hashed
// float field of a step (one step for an integer field) changes it.
func TestGoldenFinalDigestSensitivity(t *testing.T) {
	final := func(mutate func(*engine.Step)) string {
		g := NewGolden("unit")
		g.RunStart(runInfo())
		st := step(0)
		st.AllocW = []float64{30, 20}
		mutate(&st)
		g.ObserveStep(st)
		g.RunEnd(nil)
		return g.Trace().FinalDigest
	}
	ref := final(func(*engine.Step) {})
	if again := final(func(*engine.Step) {}); again != ref {
		t.Fatalf("same input hashed to %s and %s", ref, again)
	}
	nudge := func(v *float64) { *v *= 1 + 1e-12 }
	fields := map[string]func(*engine.Step){
		"index":      func(s *engine.Step) { s.Index++ },
		"chip power": func(s *engine.Step) { nudge(&s.Sim.ChipPowerW) },
		"total bips": func(s *engine.Step) { nudge(&s.Sim.TotalBIPS) },
		"max temp":   func(s *engine.Step) { nudge(&s.Sim.MaxTempC) },
	}
	for i := 0; i < 2; i++ {
		i := i
		isl := func(s *engine.Step) *sim.IslandResult { return &s.Sim.Islands[i] }
		fields[fmt.Sprintf("island %d level", i)] = func(s *engine.Step) { isl(s).Level++ }
		fields[fmt.Sprintf("island %d freq", i)] = func(s *engine.Step) { nudge(&isl(s).FreqMHz) }
		fields[fmt.Sprintf("island %d power", i)] = func(s *engine.Step) { nudge(&isl(s).PowerW) }
		fields[fmt.Sprintf("island %d bips", i)] = func(s *engine.Step) { nudge(&isl(s).BIPS) }
		fields[fmt.Sprintf("island %d instructions", i)] = func(s *engine.Step) { nudge(&isl(s).Instructions) }
		fields[fmt.Sprintf("alloc %d", i)] = func(s *engine.Step) { nudge(&s.AllocW[i]) }
	}
	for name, mutate := range fields {
		if got := final(mutate); got == ref {
			t.Errorf("changing the %s left the final digest at %s", name, ref)
		}
	}
}

// TestSuiteOnLiveRun attaches the full suite to a real short managed run
// and expects it to come back clean — the integration path ForCPMWithConfig wires.
func TestSuiteOnLiveRun(t *testing.T) {
	sc := Scenario{Name: "unit-live", Mix: Canonical()[0].Mix, BudgetFrac: 0.8, MeasureEpochs: 2, WarmEpochs: 1}
	sum, suite, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("live run violated invariants:\n%s", suite.Report())
	}
	if sum.MeanPowerW <= 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	if !strings.Contains(suite.Report(), "ok") {
		t.Errorf("report: %q", suite.Report())
	}
}
