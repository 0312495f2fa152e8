package engine

import (
	"hash/fnv"
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// seriesHash folds a run's full per-interval power/BIPS series (chip and
// per island) into one hash, so executor equivalence is asserted
// bit-for-bit.
func seriesHash(steps []Step) uint64 {
	h := fnv.New64a()
	word := func(v float64) {
		b := math.Float64bits(v)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range steps {
		word(s.Sim.ChipPowerW)
		word(s.Sim.TotalBIPS)
		for _, ir := range s.Sim.Islands {
			word(ir.PowerW)
			word(ir.BIPS)
		}
	}
	return h.Sum64()
}

// runManagedSteps executes one managed session and returns its measured
// steps.
func runManagedSteps(t testing.TB) []Step {
	t.Helper()
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = 11
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(cmp, core.Config{BudgetW: 28, UseOraclePower: true})
	if err != nil {
		t.Fatal(err)
	}
	var steps []Step
	s, err := NewSession(NewCPMRunner(ctl), SessionConfig{
		WarmEpochs: 1, MeasureEpochs: 3, BudgetW: 28,
	}, Funcs{OnStep: func(st Step) {
		if st.Measured {
			steps = append(steps, st.Clone())
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return steps
}

// TestCrossExecutorDeterminism drives the same config + seed through a
// session run alone and sessions running concurrently inside an
// engine.Pool, and requires identical per-interval power/BIPS series from
// every path.
func TestCrossExecutorDeterminism(t *testing.T) {
	seq := seriesHash(runManagedSteps(t))

	// Several identical jobs concurrently through the pool: every job must
	// reproduce the serial hash even while racing with its siblings.
	hashes, err := Map(Pool{Workers: 4}, 4, func(i int) (uint64, error) {
		return seriesHash(runManagedSteps(t)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		if h != seq {
			t.Fatalf("pool job %d diverged: %x vs %x", i, h, seq)
		}
	}
}
