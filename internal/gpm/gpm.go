// Package gpm implements the Global Power Manager of §II-C: the first tier
// of the CPM architecture, invoked every T_global (20 PIC intervals by
// default) to provision the chip-wide power budget across the
// voltage/frequency islands.
//
// Provisioning is delegated to a Policy; the package ships the three
// policies the paper evaluates — performance-aware (Equations 4–6),
// thermal-aware (Figure 18) and variation-aware (§IV-B) — plus the
// max-share constraint decorator sketched in §II-C. The decoupling is the
// point: policies decide *how much* power each island gets, the PICs
// guarantee each island *stays at* its provision, so ΣP_i = P_target implies
// the chip tracks the global budget.
package gpm

import (
	"errors"
	"fmt"
	"math"
)

// IslandObs is what the GPM observes about one island at invocation time:
// interval aggregates over the epoch that just ended.
type IslandObs struct {
	// Island is the island index.
	Island int
	// AllocW is the allocation the island received for the past epoch.
	AllocW float64
	// PowerW is the island's measured mean power over the past epoch.
	PowerW float64
	// BIPS is the island's mean instruction throughput over the past epoch.
	BIPS float64
	// MaxPowerW is the island's maximum power (static).
	MaxPowerW float64
	// LeakMult is the island's process-variation leakage multiplier
	// (static; used by the variation-aware policy).
	LeakMult float64
	// Level is the island's current DVFS level.
	Level int
	// L2Accesses/L2Misses are the island's shared-L2 access and miss
	// deltas over the past epoch. The controller fills them only when the
	// active policy implements CacheSignalPolicy (see CacheAware); they
	// are zero otherwise.
	L2Accesses, L2Misses float64
	// L1DAccesses/L1DMisses are the corresponding private L1-D deltas.
	L1DAccesses, L1DMisses float64
}

// CacheSignalPolicy is the optional capability a Policy implements when its
// provisioning decisions read the IslandObs cache-delta fields. The
// controller probes for it (through decorators via BasePolicy) and only
// collects per-island cache counters when some policy in the chain wants
// them, so the common policies pay nothing.
type CacheSignalPolicy interface {
	Policy
	// WantsCacheSignals reports whether the policy reads cache deltas.
	WantsCacheSignals() bool
}

// BasePolicy is the optional capability of decorator policies (thermal,
// energy) that wrap another policy, letting capability probes such as
// WantsCacheSignals traverse the chain.
type BasePolicy interface {
	// BaseOf returns the wrapped policy (nil when none).
	BaseOf() Policy
}

// WantsCacheSignals reports whether p — or any policy it decorates — asks
// for the IslandObs cache-delta fields.
func WantsCacheSignals(p Policy) bool {
	for p != nil {
		if cs, ok := p.(CacheSignalPolicy); ok && cs.WantsCacheSignals() {
			return true
		}
		b, ok := p.(BasePolicy)
		if !ok {
			return false
		}
		p = b.BaseOf()
	}
	return false
}

// Policy decides the next epoch's per-island allocations.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Provision returns per-island power allocations in watts. The sum of
	// allocations must not exceed budgetW.
	Provision(budgetW float64, obs []IslandObs) []float64
}

// EqualShare is the trivial baseline policy: the budget is split evenly —
// also the initial condition of every other policy (P_i(0) = P_target/N).
type EqualShare struct{}

// Name implements Policy.
func (EqualShare) Name() string { return "equal-share" }

// Provision implements Policy.
func (EqualShare) Provision(budgetW float64, obs []IslandObs) []float64 {
	out := make([]float64, len(obs))
	if len(obs) == 0 {
		return out
	}
	share := budgetW / float64(len(obs))
	for i := range out {
		out[i] = share
	}
	return out
}

// Manager runs a policy and enforces the budget invariant.
type Manager struct {
	policy  Policy
	budgetW float64
}

// NewManager builds a GPM with the given policy and chip budget in watts.
// The budget must be positive and finite: a NaN or +Inf budget passes a
// plain `<= 0` test and then poisons every provision the manager ever
// makes, so non-finite values are rejected at this boundary.
func NewManager(policy Policy, budgetW float64) (*Manager, error) {
	if policy == nil {
		return nil, errors.New("gpm: nil policy")
	}
	if math.IsNaN(budgetW) || math.IsInf(budgetW, 0) {
		return nil, fmt.Errorf("gpm: non-finite budget %v", budgetW)
	}
	if budgetW <= 0 {
		return nil, errors.New("gpm: non-positive budget")
	}
	return &Manager{policy: policy, budgetW: budgetW}, nil
}

// BudgetW returns the chip budget.
func (m *Manager) BudgetW() float64 { return m.budgetW }

// SetBudgetW updates the chip budget (budget-sweep experiments).
// Non-finite and non-positive budgets are ignored and the previous budget
// held, matching the NewManager boundary check (see there for why): a zero
// or negative budget would zero every provision and drive all PICs to the
// bottom of the DVFS table with no way to recover the intended budget.
func (m *Manager) SetBudgetW(w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return
	}
	m.budgetW = w
}

// Policy returns the active policy.
func (m *Manager) Policy() Policy { return m.policy }

// Provision invokes the policy and clips the result so that the invariant
// Σ alloc ≤ budget holds regardless of policy bugs, scaling allocations
// proportionally if the policy oversubscribed.
func (m *Manager) Provision(obs []IslandObs) []float64 {
	alloc := m.policy.Provision(m.budgetW, obs)
	if len(alloc) != len(obs) {
		// A policy returning the wrong arity is a programming error;
		// recover to an equal split rather than crash a long experiment.
		alloc = EqualShare{}.Provision(m.budgetW, obs)
	}
	sum := 0.0
	for i, a := range alloc {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			alloc[i] = 0
			a = 0
		}
		sum += a
	}
	if sum > m.budgetW && sum > 0 {
		scale := m.budgetW / sum
		for i := range alloc {
			alloc[i] *= scale
		}
	}
	return alloc
}
