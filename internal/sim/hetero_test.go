package sim

import (
	"bytes"
	"errors"
	"testing"

	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/workload"
)

// tinyMix is a 2-island × 1-core chip: the smallest structure that can be
// heterogeneous, keeping snapshot fuzz corpora small.
func tinyMix() workload.Mix {
	return workload.Mix{Name: "tiny", Islands: [][]string{{"bschls"}, {"fsim"}}}
}

func biglittleClasses() []power.CoreClass {
	return []power.CoreClass{power.ClassOoO, power.ClassLittleIO}
}

// TestHeterogeneousChip pins the per-island contract of a big.LITTLE chip:
// each island carries its own table and model, the legacy chip-global
// accessors panic, and the chip maximum is the sum of the island maxima.
func TestHeterogeneousChip(t *testing.T) {
	cfg := DefaultConfig(tinyMix())
	cfg.IslandClasses = biglittleClasses()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Heterogeneous() {
		t.Fatal("big.LITTLE chip does not report Heterogeneous")
	}
	if c.IslandClass(0) != power.ClassOoO || c.IslandClass(1) != power.ClassLittleIO {
		t.Fatalf("island classes %v/%v, want ooo/little", c.IslandClass(0), c.IslandClass(1))
	}
	big, little := c.IslandTable(0), c.IslandTable(1)
	if big == little {
		t.Fatal("big and little islands share one DVFS table")
	}
	if little.Max().FreqMHz <= big.Max().FreqMHz {
		t.Errorf("little top frequency %.1f not above big %.1f (shorter pipeline clocks higher)",
			little.Max().FreqMHz, big.Max().FreqMHz)
	}
	if c.IslandMaxPowerW(1) >= c.IslandMaxPowerW(0) {
		t.Errorf("little island max power %.2f W not below big %.2f W",
			c.IslandMaxPowerW(1), c.IslandMaxPowerW(0))
	}
	if got, want := c.MaxChipPowerW(), c.IslandMaxPowerW(0)+c.IslandMaxPowerW(1); got != want {
		t.Errorf("chip max %.4f W, want sum of island maxima %.4f W", got, want)
	}
	r := c.Step()
	if r.ChipPowerW <= 0 || r.TotalBIPS <= 0 {
		t.Fatalf("hetero chip step produced power %.3f W, BIPS %.3f", r.ChipPowerW, r.TotalBIPS)
	}
}

// TestTechScaledChip pins the homogeneous tech path: a 16 nm ITRS chip's
// islands share one chip-global table, the scaled 7-level one.
func TestTechScaledChip(t *testing.T) {
	cfg := DefaultConfig(tinyMix())
	cfg.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Heterogeneous() {
		t.Fatal("homogeneous tech-scaled chip reports Heterogeneous")
	}
	if got := c.IslandTable(0).Levels(); got != 7 {
		t.Fatalf("16nm-itrs table has %d levels, want 7 (vth floor eats level 0)", got)
	}
	if c.IslandTable(0) != c.IslandTable(1) {
		t.Fatal("islands do not alias the chip-global scaled table")
	}
	base, err := New(DefaultConfig(tinyMix()))
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxChipPowerW() >= base.MaxChipPowerW() {
		t.Errorf("16nm chip max %.2f W not below 45nm-class %.2f W", c.MaxChipPowerW(), base.MaxChipPowerW())
	}
}

// TestIslandClassesLengthValidated rejects a class list that does not
// cover every island.
func TestIslandClassesLengthValidated(t *testing.T) {
	cfg := DefaultConfig(tinyMix())
	cfg.IslandClasses = []power.CoreClass{power.ClassLittleIO}
	if _, err := New(cfg); err == nil {
		t.Fatal("one class for two islands accepted")
	}
	cfg = DefaultConfig(tinyMix())
	cfg.Tech = power.TechConfig{Node: 7}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown tech node accepted")
	}
}

// snapshotChip encodes a chip's dynamic state (no file header; the section
// bytes the v3 identity block lives in).
func snapshotChip(t testing.TB, c *CMP) []byte {
	t.Helper()
	e := snapshot.NewEncoder()
	if err := c.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestSnapshotRejectsIslandIdentityMismatch pins the v3 rule: a snapshot
// restores only into a chip with the same tech node and per-island
// class/table identity; any mismatch is a shape error, not a silent
// reinterpretation of DVFS state against the wrong table.
func TestSnapshotRejectsIslandIdentityMismatch(t *testing.T) {
	hetero := DefaultConfig(tinyMix())
	hetero.IslandClasses = biglittleClasses()
	src, err := New(hetero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src.Step()
	}
	raw := snapshotChip(t, src)

	for name, mut := range map[string]func(*Config){
		"homogeneous target":  func(c *Config) { c.IslandClasses = nil },
		"classes swapped":     func(c *Config) { c.IslandClasses = []power.CoreClass{power.ClassLittleIO, power.ClassOoO} },
		"tech-scaled target":  func(c *Config) { c.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS} },
		"conservative target": func(c *Config) { c.Tech = power.TechConfig{Node: power.Node8, Variant: power.Conservative} },
	} {
		cfg := DefaultConfig(tinyMix())
		cfg.IslandClasses = biglittleClasses()
		mut(&cfg)
		dst, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err = dst.Restore(snapshot.NewDecoder(raw))
		if err == nil {
			t.Errorf("%s: mismatched snapshot restored without error", name)
		} else if !errors.Is(err, snapshot.ErrShape) {
			t.Errorf("%s: want shape error, got %v", name, err)
		}
	}

	// The matching target restores and re-encodes identically.
	cfg := DefaultConfig(tinyMix())
	cfg.IslandClasses = biglittleClasses()
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(snapshot.NewDecoder(raw)); err != nil {
		t.Fatalf("matching restore: %v", err)
	}
	if re := snapshotChip(t, dst); !bytes.Equal(re, raw) {
		t.Fatal("matching restore is not re-encode-identical")
	}
}

// FuzzChipSnapshotV3Restore is the reject-or-identical robustness target
// for the chip section and its v3 per-island identity block: whatever
// bytes arrive, Restore must either reject them with an error or produce a
// state whose re-encoding is byte-identical to the input and that the chip
// can step from.
func FuzzChipSnapshotV3Restore(f *testing.F) {
	cfg := DefaultConfig(tinyMix())
	cfg.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS}
	cfg.IslandClasses = biglittleClasses()
	seed, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		seed.Step()
	}
	valid := snapshotChip(f, seed)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/3])
	for _, off := range []int{8, 24, 40, 64, len(valid) / 2} {
		if off < len(valid) {
			mut := bytes.Clone(valid)
			mut[off] ^= 0x01
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(snapshot.NewDecoder(data)); err != nil {
			return // rejected: the safe outcome for arbitrary bytes
		}
		e := snapshot.NewEncoder()
		if err := dst.Snapshot(e); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(e.Bytes(), data[:e.Len()]) {
			t.Fatal("accepted chip snapshot is not re-encode-identical")
		}
		dst.Step()
	})
}
