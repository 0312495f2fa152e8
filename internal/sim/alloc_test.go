package sim

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/workload"
)

// TestStepSteadyStateAllocs pins the zero-allocation contract of the
// sequential interval loop: after warmup, a Step must not allocate — the
// result reuses the chip's scratch Islands buffer and every island's
// buffers are already sized.
func TestStepSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 11
	c := newCMP(t, cfg)
	for k := 0; k < 5; k++ {
		c.Step()
	}
	if n := testing.AllocsPerRun(20, func() { c.Step() }); n != 0 {
		t.Errorf("steady-state Step allocates %v times per interval, want 0", n)
	}
}

// BenchmarkIntervalKernel measures the full per-interval cost of the
// sequential 8-core chip — the ns/interval figure of the bench trajectory.
func BenchmarkIntervalKernel(b *testing.B) {
	cfg := DefaultConfig(workload.Mix1())
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		c.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
