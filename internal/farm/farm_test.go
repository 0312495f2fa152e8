package farm

import (
	"reflect"
	"testing"

	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// keyCase is one single-field change to the base configuration.
type keyCase struct {
	name string
	edit func(*sim.Config)
}

func baseConfig() sim.Config {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = 3
	return cfg
}

// TestKeyOfSeparatesWorkloads: every field that shapes the record stream
// must change the key, or one chip would silently run another's workload.
func TestKeyOfSeparatesWorkloads(t *testing.T) {
	base := baseConfig()
	classes := make([]power.CoreClass, len(base.Mix.Islands))
	for i := range classes {
		classes[i] = power.ClassOoO
	}
	classes[1] = power.ClassLittleIO
	for _, c := range []keyCase{
		{"seed", func(cfg *sim.Config) { cfg.Seed++ }},
		{"mix", func(cfg *sim.Config) { cfg.Mix = workload.Mix2() }},
		{"core", func(cfg *sim.Config) { cfg.Core.DataSampleRefs++ }},
		{"shared L2", func(cfg *sim.Config) { cfg.SharedL2 = true }},
		{"L2 prefetch", func(cfg *sim.Config) { cfg.L2PrefetchDegree = 4 }},
		{"tech", func(cfg *sim.Config) { cfg.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS} }},
		{"island classes", func(cfg *sim.Config) { cfg.IslandClasses = classes }},
	} {
		cfg := baseConfig()
		c.edit(&cfg)
		if KeyOf(cfg) == KeyOf(base) {
			t.Errorf("%s: key unchanged (%s)", c.name, KeyOf(cfg))
		}
	}
}

// TestKeyOfIgnoresComputeHalf: fields of the frequency-dependent half leave
// the key alone, and sharing is sound because samplers built from either
// configuration produce identical record batches.
func TestKeyOfIgnoresComputeHalf(t *testing.T) {
	const intervals = 50
	base := baseConfig()
	want := sampleBatches(t, base, intervals)
	mesh := noc.DefaultConfig(2, 4)
	for _, c := range []keyCase{
		{"initial level", func(cfg *sim.Config) { cfg.InitialLevel = 2 }},
		{"variation", func(cfg *sim.Config) { cfg.Variation = variation.Random(9, 8, 0.1) }},
		{"interval", func(cfg *sim.Config) { cfg.IntervalSec *= 2 }},
		{"memory", func(cfg *sim.Config) { cfg.Mem.BaseLatencyNs *= 2 }},
		{"thermal", func(cfg *sim.Config) { cfg.Thermal.AmbientC += 10 }},
		{"NoC", func(cfg *sim.Config) { cfg.NoC = &mesh }},
		{"parallel", func(cfg *sim.Config) { cfg.Parallel = true }},
	} {
		cfg := baseConfig()
		c.edit(&cfg)
		if KeyOf(cfg) != KeyOf(base) {
			t.Errorf("%s: key changed: %s vs %s", c.name, KeyOf(cfg), KeyOf(base))
			continue
		}
		if got := sampleBatches(t, cfg, intervals); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: equal keys but different record batches", c.name)
		}
	}
}

// sampleBatches copies n record batches out of a fresh sampler for cfg.
func sampleBatches(t *testing.T, cfg sim.Config, n int) [][]uarch.TraceRecord {
	t.Helper()
	s, err := sim.NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]uarch.TraceRecord, n)
	for k := range out {
		out[k] = append([]uarch.TraceRecord(nil), s.Records(k)...)
	}
	return out
}
