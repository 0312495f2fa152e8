// Package farm batches many chip simulations into shared-workload groups
// — the in-memory executor for batches of runs that share a workload,
// between the single-chip kernel (internal/sim) and the batch drivers
// (cpmsweep, perfbench's fleet).
//
// The enabling property is that uarch.TraceRecords are frequency-
// independent: the expensive half of a chip interval (phase generation,
// address streams, ~20k sampled cache accesses — >95% of a step)
// depends only on the chip's workload identity (seed, mix, core and cache
// configuration), not on its DVFS trajectory, controller, budget, memory
// or thermal state. Chips sharing a WorkloadKey therefore share one
// sim.Sampler: each interval the sampler runs once and every member chip
// evaluates only its cheap frequency-dependent half (uarch.ComputeCore)
// over its own per-chip state. A sweep's budget points — same workload,
// different budgets and controllers — collapse into one group, so the
// aggregate cost of N points approaches the cost of one.
//
// A sampler retains its last sim.Window intervals, so each pass steps
// every member sim.Window intervals before the next member moves.
// Stepping all members one interval per round instead walks every other
// member's state between two intervals of one chip, and the sampler's
// cache arrays and each member's state fall out of the host's caches every
// interval.
//
// A member chip steps the same code as the chip sim.New builds from its
// Config, over a shared sampler instead of its own, so it is bit-identical
// to that chip — pinned against the golden scenarios by internal/check —
// and group membership and pool worker count never change results, only
// wall-clock.
package farm

import (
	"errors"
	"fmt"
	"sync"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// WorkloadKey identifies the sampling half of a chip configuration: chips
// with equal keys produce identical TraceRecord streams and may share one
// sampler. Everything else in sim.Config — power model, memory timing,
// thermal, variation, initial DVFS level, NoC, interval length — belongs
// to the frequency-dependent half and may differ freely within a group.
type WorkloadKey string

// KeyOf derives the workload key of a configuration.
func KeyOf(cfg sim.Config) WorkloadKey {
	k := fmt.Sprintf("seed=%d/mix=%s%v/core=%+v/sharedl2=%v/pref=%d",
		cfg.Seed, cfg.Mix.Name, cfg.Mix.Islands, cfg.Core, cfg.SharedL2, cfg.L2PrefetchDegree)
	// Trace records depend on each island's core pipeline and frequency
	// axis, so the tech node and island classes are part of workload
	// identity; appended only when in use, legacy keys stay byte-identical.
	if cfg.Tech.Enabled() {
		k += "/tech=" + cfg.Tech.String()
	}
	if cfg.IslandClasses != nil {
		k += fmt.Sprintf("/classes=%v", cfg.IslandClasses)
	}
	return WorkloadKey(k)
}

// ChipSpec describes one member chip of a farm.
type ChipSpec struct {
	// Config is the chip configuration. The record-driven member built
	// from it is bit-identical to sim.New(Config).
	Config sim.Config
	// NewSession builds the chip's session: wrap the chip in a runner
	// (unmanaged, CPM, MaxBIPS, ...) and attach observers — normally
	// check.Scenario.BuildOn, which also restores a warm-start snapshot
	// into the chip. Required.
	NewSession func(cmp *sim.CMP) (*engine.Session, error)
}

// Options shapes farm construction.
type Options struct {
	// SamplerState, when non-nil, is a sim.Sampler snapshot restored into
	// the farm's one sampler — the warm-started path, where member chips
	// fork from templates already advanced past the snapshot's cursor. The
	// snapshot does not name its workload, so the specs must share one
	// WorkloadKey.
	SamplerState []byte
}

// group is the unit of sharing and of pool parallelism: one sampler's
// member chips, stepped in passes of sim.Window intervals by one
// FarmRunner. specs[j] is the spec index of the runner's j-th session, so
// results come back in spec order.
type group struct {
	specs []int
	fr    *engine.FarmRunner
}

// Farm is a constructed fleet: grouped chips and sessions, ready to run.
type Farm struct {
	groups []*group
	nSpecs int

	mu         sync.Mutex
	completed  int
	onProgress func(completed, total int)
}

// New builds the fleet: specs are grouped by WorkloadKey (first-seen
// order), each group gets one sampler, and every spec becomes a
// record-driven chip over it plus session. Construction is eager and
// deterministic; Run only steps.
func New(specs []ChipSpec, opts Options) (*Farm, error) {
	if len(specs) == 0 {
		return nil, errors.New("farm: no chips")
	}
	f := &Farm{nSpecs: len(specs)}

	// Group spec indices by workload key, preserving first-seen order.
	order := []WorkloadKey{}
	byKey := map[WorkloadKey][]int{}
	for i, s := range specs {
		if s.NewSession == nil {
			return nil, fmt.Errorf("farm: chip %d has no session factory", i)
		}
		k := KeyOf(s.Config)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}

	if opts.SamplerState != nil && len(order) > 1 {
		return nil, fmt.Errorf("farm: a sampler snapshot restores one workload, but the chips span %d workload keys", len(order))
	}
	for _, k := range order {
		g, err := buildGroup(k, specs, byKey[k], opts.SamplerState)
		if err != nil {
			return nil, err
		}
		f.groups = append(f.groups, g)
	}
	return f, nil
}

// buildGroup constructs one sampler and the member chips and sessions.
func buildGroup(key WorkloadKey, specs []ChipSpec, idxs []int, samplerState []byte) (*group, error) {
	sampler, err := sim.NewSampler(specs[idxs[0]].Config)
	if err != nil {
		return nil, fmt.Errorf("farm: sampler for %s: %w", key, err)
	}
	if samplerState != nil {
		if err := sampler.Restore(snapshot.NewDecoder(samplerState)); err != nil {
			return nil, fmt.Errorf("farm: restoring sampler for %s: %w", key, err)
		}
	}
	sessions := make([]*engine.Session, len(idxs))
	for j, i := range idxs {
		spec := specs[i]
		cmp, err := sim.NewWithRecords(spec.Config, sampler)
		if err != nil {
			return nil, fmt.Errorf("farm: chip %d: %w", i, err)
		}
		sess, err := spec.NewSession(cmp)
		if err != nil {
			return nil, fmt.Errorf("farm: chip %d session: %w", i, err)
		}
		if sess == nil {
			return nil, fmt.Errorf("farm: chip %d session factory returned nil", i)
		}
		sessions[j] = sess
	}
	fr, err := engine.NewFarmRunner(sessions)
	if err != nil {
		return nil, err
	}
	return &group{specs: idxs, fr: fr}, nil
}

// NumGroups returns the number of sampler groups.
func (f *Farm) NumGroups() int { return len(f.groups) }

// progress folds a group's newly completed sessions into the fleet count
// and forwards it; called from pool workers, hence the lock.
func (f *Farm) progress(delta int) {
	if delta == 0 || f.onProgress == nil {
		return
	}
	f.mu.Lock()
	f.completed += delta
	done, total := f.completed, f.nSpecs
	cb := f.onProgress
	f.mu.Unlock()
	cb(done, total)
}

// Run executes the whole fleet on the pool — groups are the unit of
// parallelism; within a group, chips step in passes of sim.Window
// intervals — and returns the summaries in spec order. onProgress, when
// non-nil, is invoked (serialized) whenever sessions finish, with
// fleet-wide counts. Byte-identical results at any pool size.
func (f *Farm) Run(pool engine.Pool, onProgress func(completed, total int)) ([]engine.Summary, error) {
	f.onProgress = onProgress
	out := make([]engine.Summary, f.nSpecs)
	err := pool.Run(len(f.groups), func(gi int) error {
		g := f.groups[gi]
		prev := 0
		sums := g.fr.RunWindows(sim.Window, func(done, _ int) {
			f.progress(done - prev)
			prev = done
		})
		for j, i := range g.specs {
			out[i] = sums[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
