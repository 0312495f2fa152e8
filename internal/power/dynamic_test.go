package power

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/stats"
)

func defaultDyn(t *testing.T) *DynamicModel {
	t.Helper()
	m, err := NewDynamicModel(10, PentiumM().Max(), 0.10, DefaultUnitWeights)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultUnitWeightsValid(t *testing.T) {
	if err := DefaultUnitWeights.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitWeightsValidation(t *testing.T) {
	bad := DefaultUnitWeights
	bad[UnitFetch] = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative weight should be rejected")
	}
	short := UnitWeights{}
	if err := short.Validate(); err == nil {
		t.Error("zero-sum weights should be rejected")
	}
}

func TestUnitString(t *testing.T) {
	if UnitFetch.String() != "fetch" || UnitClock.String() != "clock" {
		t.Error("unexpected unit names")
	}
	if Unit(99).String() != "unit(99)" {
		t.Error("out-of-range unit name")
	}
}

// derive returns the activity DeriveActivity writes for p.
func derive(p ActivityProfile) *Activity {
	var a Activity
	DeriveActivity(&p, &a)
	return &a
}

func TestPowerAtReferenceFullActivity(t *testing.T) {
	m := defaultDyn(t)
	full := FullActivity()
	got := m.Power(m.Ref, &full)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("power at reference, full activity = %v, want 10", got)
	}
}

func TestPowerIdleIsGateFloor(t *testing.T) {
	m := defaultDyn(t)
	// Fully idle core draws GateFloor of the scaled max (the paper's linear
	// clock gating with 10% power for unused components).
	got := m.Power(m.Ref, &Activity{})
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("idle power = %v, want 1.0 (10%% of 10W)", got)
	}
}

func TestPowerMonotoneInLevel(t *testing.T) {
	m := defaultDyn(t)
	tbl := PentiumM()
	prev := -1.0
	full := FullActivity()
	for i := 0; i < tbl.Levels(); i++ {
		p := m.Power(tbl.Point(i), &full)
		if p <= prev {
			t.Fatalf("power not increasing with level at %d", i)
		}
		prev = p
	}
}

// The V²f scaling with V linear in f must be close to the cubic law of
// Equation (1): a k·f³ fit over the table should explain nearly all
// variance.
func TestCubicFrequencyLaw(t *testing.T) {
	m := defaultDyn(t)
	tbl := PentiumM()
	var cubes, powers []float64
	full := FullActivity()
	for i := 0; i < tbl.Levels(); i++ {
		op := tbl.Point(i)
		f := op.FreqMHz / 1000
		cubes = append(cubes, f*f*f)
		powers = append(powers, m.Power(op, &full))
	}
	fit, err := stats.LinReg(cubes, powers)
	if err != nil {
		t.Fatal(err)
	}
	// V spans 0.956–1.356 V while f spans 600–2000 MHz, so V²f is close to
	// but not exactly cubic; the paper's Equation (1) is the same
	// approximation.
	if fit.R2 < 0.97 {
		t.Errorf("cubic fit R² = %.4f, want > 0.97 (Equation 1)", fit.R2)
	}
}

// Total power must be linear in utilization at a fixed operating point —
// the transducer relation of Figure 6 at the model level.
func TestLinearInUtilization(t *testing.T) {
	m := defaultDyn(t)
	op := PentiumM().Point(4)
	var us, ps []float64
	for u := 0.0; u <= 1.0; u += 0.05 {
		act := derive(ActivityProfile{
			Utilization:    u,
			FPFraction:     0.3,
			MemRefFraction: 0.35,
			L2AccessFactor: 0.1 * u,
		})
		us = append(us, u)
		ps = append(ps, m.Power(op, act))
	}
	fit, err := stats.LinReg(us, ps)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.99 {
		t.Errorf("utilization fit R² = %.4f, want > 0.99", fit.R2)
	}
	if fit.Slope <= 0 {
		t.Errorf("power must increase with utilization, slope = %v", fit.Slope)
	}
}

func TestPowerBreakdownSumsToTotal(t *testing.T) {
	m := defaultDyn(t)
	op := PentiumM().Point(3)
	act := derive(ActivityProfile{Utilization: 0.7, FPFraction: 0.4, MemRefFraction: 0.3, L2AccessFactor: 0.2})
	parts := m.PowerBreakdown(op, act)
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	if total := m.Power(op, act); math.Abs(sum-total) > 1e-9 {
		t.Errorf("breakdown sums to %v, total is %v", sum, total)
	}
}

func TestDeriveActivityBounds(t *testing.T) {
	// Out-of-range inputs are clamped.
	a := derive(ActivityProfile{Utilization: 2, FPFraction: -1, MemRefFraction: 5, L2AccessFactor: 9})
	for u, v := range a.Units {
		if v < 0 || v > 1 {
			t.Errorf("activity[%s] = %v out of [0,1]", Unit(u), v)
		}
	}
	if a.Units[UnitClock] != 1 {
		t.Error("clock tree should always be active")
	}
}

func TestDeriveActivityALUSplit(t *testing.T) {
	a := derive(ActivityProfile{Utilization: 1, FPFraction: 0.25})
	if math.Abs(a.Units[UnitIntALU]-0.75) > 1e-12 || math.Abs(a.Units[UnitFPU]-0.25) > 1e-12 {
		t.Errorf("ALU split = (%v, %v), want (0.75, 0.25)", a.Units[UnitIntALU], a.Units[UnitFPU])
	}
}

func TestNewDynamicModelValidation(t *testing.T) {
	ref := PentiumM().Max()
	if _, err := NewDynamicModel(0, ref, 0.1, DefaultUnitWeights); err == nil {
		t.Error("zero max power should be rejected")
	}
	if _, err := NewDynamicModel(10, OperatingPoint{}, 0.1, DefaultUnitWeights); err == nil {
		t.Error("zero reference point should be rejected")
	}
	if _, err := NewDynamicModel(10, ref, 1.5, DefaultUnitWeights); err == nil {
		t.Error("gate floor > 1 should be rejected")
	}
	if _, err := NewDynamicModel(10, ref, 0.1, UnitWeights{}); err == nil {
		t.Error("invalid weights should be rejected")
	}
}

// Property: power is monotone non-decreasing in every unit's activity.
func TestPowerMonotoneInActivityProperty(t *testing.T) {
	m := defaultDyn(t)
	op := PentiumM().Point(5)
	f := func(seed uint64, du float64) bool {
		r := stats.NewRand(seed)
		var a Activity
		for u := range a.Units {
			a.Units[u] = r.Float64()
		}
		b := a
		which := r.Intn(int(NumUnits))
		bump := math.Abs(math.Mod(du, 1))
		b.Units[which] = clamp01(b.Units[which] + bump)
		return m.Power(op, &b) >= m.Power(op, &a)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
