package farm

import (
	"reflect"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
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

// TestSamplerStateNeedsOneWorkload: a sampler snapshot carries RNG and
// cache state but not the seed it was sampled under, so restoring a seed-1
// snapshot into a seed-2 sampler would replay seed 1's workload under seed
// 2's name. A farm given a snapshot must therefore span one workload key.
func TestSamplerStateNeedsOneWorkload(t *testing.T) {
	cfgs := []sim.Config{baseConfig(), baseConfig()}
	cfgs[0].Seed, cfgs[1].Seed = 1, 2
	sampler, err := sim.NewSampler(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		sampler.Records(k)
	}
	e := snapshot.NewEncoder()
	sampler.Snapshot(e)
	specs := make([]ChipSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = ChipSpec{Config: cfg, NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
			return engine.NewSession(engine.NewChipRunner(cmp), engine.SessionConfig{MeasureEpochs: 1})
		}}
	}
	if _, err := New(specs, Options{SamplerState: e.Bytes()}); err == nil || !strings.Contains(err.Error(), "span 2") {
		t.Fatalf("New over two workload keys with a sampler snapshot: err %v, want a refusal naming 2 keys", err)
	}
	f, err := New(specs[:1], Options{SamplerState: e.Bytes()})
	if err != nil {
		t.Fatalf("New over the snapshot's own workload: %v", err)
	}
	if f.NumGroups() != 1 {
		t.Errorf("one workload key built %d groups", f.NumGroups())
	}
}
