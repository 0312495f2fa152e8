package power

import (
	"math"
	"testing"
)

func defaultLeak(t *testing.T) *LeakageModel {
	t.Helper()
	m, err := NewLeakageModel(2.0, 1.356, 45, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLeakageAtReference(t *testing.T) {
	m := defaultLeak(t)
	if got := m.Power(1.356, 45, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("leakage at reference = %v, want 2", got)
	}
}

func TestLeakageTemperatureDoubling(t *testing.T) {
	m := defaultLeak(t)
	base := m.Power(1.356, 45, 1)
	// β = 0.05 → doubling every ln(2)/0.05 ≈ 13.9 °C.
	hot := m.Power(1.356, 45+math.Ln2/0.05, 1)
	if math.Abs(hot/base-2) > 1e-9 {
		t.Errorf("leakage ratio over doubling interval = %v, want 2", hot/base)
	}
}

func TestLeakageLinearInVoltage(t *testing.T) {
	m := defaultLeak(t)
	half := m.Power(1.356/2, 45, 1)
	full := m.Power(1.356, 45, 1)
	if math.Abs(full/half-2) > 1e-9 {
		t.Errorf("leakage not linear in voltage: ratio %v", full/half)
	}
}

func TestLeakageVariationMultiplier(t *testing.T) {
	m := defaultLeak(t)
	base := m.Power(1.2, 60, 1)
	leaky := m.Power(1.2, 60, 2)
	if math.Abs(leaky/base-2) > 1e-9 {
		t.Errorf("variation multiplier not applied linearly: %v", leaky/base)
	}
}

func TestLeakageClampsNegativeInputs(t *testing.T) {
	m := defaultLeak(t)
	if m.Power(-1, 45, 1) != 0 {
		t.Error("negative voltage should yield zero leakage")
	}
	if m.Power(1.2, 45, -3) != 0 {
		t.Error("negative variation should yield zero leakage")
	}
}

func TestNewLeakageModelValidation(t *testing.T) {
	if _, err := NewLeakageModel(-1, 1.2, 45, 0.05); err == nil {
		t.Error("negative nominal power should be rejected")
	}
	if _, err := NewLeakageModel(2, 0, 45, 0.05); err == nil {
		t.Error("zero reference voltage should be rejected")
	}
	if _, err := NewLeakageModel(2, 1.2, 45, -0.05); err == nil {
		t.Error("negative beta should be rejected")
	}
}

func TestModelAccounting(t *testing.T) {
	m := DefaultModel()
	// CorePower is the sum of the parts.
	act := derive(ActivityProfile{Utilization: 0.8, FPFraction: 0.3, MemRefFraction: 0.3})
	lvl := 5
	op := m.Table.Point(lvl)
	want := m.Dynamic.Power(op, act) + m.Leakage.Power(op.VoltageV, 50, 1.2)
	if got := m.CorePower(lvl, act, 50, 1.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("CorePower = %v, want %v", got, want)
	}
	// Out-of-range level clamps instead of panicking.
	if got := m.CorePower(99, act, 50, 1.2); got <= 0 {
		t.Error("clamped CorePower should be positive")
	}
}

func TestMaxChipPowerScalesWithCores(t *testing.T) {
	m := DefaultModel()
	one := m.MaxChipPower(1)
	if math.Abs(m.MaxChipPower(8)-8*one) > 1e-9 {
		t.Error("MaxChipPower should scale linearly with core count")
	}
	if math.Abs(one-m.CoreMaxPower()) > 1e-12 {
		t.Error("MaxChipPower(1) should equal CoreMaxPower")
	}
	// Default calibration: 10 W dynamic + 2 W leakage per core.
	if math.Abs(one-12) > 1e-9 {
		t.Errorf("CoreMaxPower = %v, want 12", one)
	}
}

func TestBudgetWatts(t *testing.T) {
	m := DefaultModel()
	w, err := m.BudgetWatts(0.8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-0.8*m.MaxChipPower(8)) > 1e-9 {
		t.Errorf("BudgetWatts = %v", w)
	}
	if _, err := m.BudgetWatts(0, 8); err == nil {
		t.Error("zero budget should be rejected")
	}
	if _, err := m.BudgetWatts(1.5, 8); err == nil {
		t.Error("budget above 1 should be rejected")
	}
}
