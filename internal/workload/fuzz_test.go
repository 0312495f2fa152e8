package workload

import (
	"strings"
	"testing"
)

// FuzzParseMix drives the mix-spec parser with arbitrary input. Properties:
// the parser never panics; anything it accepts validates, stays within the
// documented size bounds, and round-trips through a re-rendered spec to the
// same island assignment.
func FuzzParseMix(f *testing.F) {
	f.Add("bschls,sclust/btrack,fsim/fmine,canneal/x264,vips")
	f.Add("hot:mesa/bzip/gcc/sixtrack")
	f.Add(" bschls , sclust / vips ")
	f.Add("custom:")
	f.Add(":/")
	f.Add("a,b/c")
	f.Add("mesa")
	f.Add(strings.Repeat("mesa/", 100))
	f.Add("name with spaces:mesa/bzip")
	f.Add("mesa,,bzip")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseMix(spec)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseMix(%q) accepted an invalid mix: %v", spec, err)
		}
		if m.Name == "" {
			t.Fatalf("ParseMix(%q) returned an unnamed mix", spec)
		}
		if len(m.Islands) > maxSpecIslands {
			t.Fatalf("ParseMix(%q) exceeded the island bound: %d", spec, len(m.Islands))
		}
		for i, isl := range m.Islands {
			if len(isl) > maxSpecCoresPerIsland {
				t.Fatalf("ParseMix(%q) island %d exceeded the core bound: %d", spec, i, len(isl))
			}
		}
		// Round-trip: rendering the accepted mix back to spec form must
		// parse to the same assignment.
		var parts []string
		for _, isl := range m.Islands {
			parts = append(parts, strings.Join(isl, ","))
		}
		again, err := ParseMix(m.Name + ":" + strings.Join(parts, "/"))
		if err != nil {
			t.Fatalf("round-trip of ParseMix(%q) rejected: %v", spec, err)
		}
		if len(again.Islands) != len(m.Islands) {
			t.Fatalf("round-trip island count %d != %d", len(again.Islands), len(m.Islands))
		}
		for i := range m.Islands {
			if strings.Join(again.Islands[i], ",") != strings.Join(m.Islands[i], ",") {
				t.Fatalf("round-trip island %d differs: %v != %v", i, again.Islands[i], m.Islands[i])
			}
		}
	})
}

// FuzzStreamAddrs drives the address-stream generator with arbitrary seeds,
// cores, profiles and phase intensities. Properties: no panics, every
// generated address stays inside the owning core's private segment — data
// within the working set above dataBase, fetches within the code footprint
// above codeBase — so streams from different cores can never alias, and
// the data stream is draw for draw the branchy reference loop's.
func FuzzStreamAddrs(f *testing.F) {
	f.Add(uint64(1), 0, 0, 64, 1.0)
	f.Add(uint64(42), 7, 3, 1, 0.25)
	f.Add(uint64(0), 31, 200, 512, 4.0)
	f.Fuzz(func(t *testing.T, seed uint64, coreID, profIdx, n int, memMult float64) {
		if coreID < 0 || coreID > 1<<20 {
			coreID %= 1 << 20
			if coreID < 0 {
				coreID = -coreID
			}
		}
		if n < 0 {
			n = -n
		}
		n %= 4096
		names := Names()
		if profIdx < 0 {
			profIdx = -profIdx
		}
		p := MustByName(names[profIdx%len(names)])
		// Phases are bounded by the phase machine; clamp the fuzzed
		// multiplier into the same domain.
		ph := NeutralPhase()
		if memMult == memMult && memMult > 0 && memMult < 16 { // not NaN
			ph.MemMult = memMult
		}

		g, err := NewStreamGen(seed, coreID, p)
		if err != nil {
			t.Fatalf("NewStreamGen rejected registry profile %s: %v", p.Name, err)
		}
		base := uint64(coreID+1) << 40
		next := uint64(coreID+2) << 40

		data := g.DataAddrs(n, ph, nil)
		if len(data) != n {
			t.Fatalf("DataAddrs returned %d addresses, want %d", len(data), n)
		}
		ws := p.WorkingSetBytes
		if ws < blockBytes {
			ws = blockBytes
		}
		for i, a := range data {
			if a < base || a >= next {
				t.Fatalf("data addr %d (%#x) escaped core %d's segment [%#x, %#x)", i, a, coreID, base, next)
			}
			if off := a - base; off >= ws {
				t.Fatalf("data addr %d offset %#x beyond working set %#x", i, off, ws)
			}
		}

		fetch := g.FetchAddrs(n, nil)
		codeBase := base | 1<<36
		for i, a := range fetch {
			if a < codeBase || a >= next {
				t.Fatalf("fetch addr %d (%#x) escaped core %d's code segment", i, a, coreID)
			}
			if off := a - codeBase; off >= p.CodeBytes {
				t.Fatalf("fetch addr %d offset %#x beyond code footprint %#x", i, off, p.CodeBytes)
			}
		}

		// Same inputs, fresh generator: streams must be reproducible.
		g2, err := NewStreamGen(seed, coreID, p)
		if err != nil {
			t.Fatalf("NewStreamGen rejected registry profile %s: %v", p.Name, err)
		}
		data2 := g2.DataAddrs(n, ph, nil)
		for i := range data {
			if data[i] != data2[i] {
				t.Fatalf("stream not reproducible at %d: %#x != %#x", i, data[i], data2[i])
			}
		}

		// Two more batches against the branchy reference, the second in
		// a different phase.
		ref, err := NewStreamGen(seed, coreID, p)
		if err != nil {
			t.Fatalf("NewStreamGen rejected registry profile %s: %v", p.Name, err)
		}
		branchyDataAddrs(ref, n, ph, nil)
		ph2 := ph
		ph2.MemMult /= 2
		checkAgainstBranchy(t, "second batch", g2, ref, n, ph)
		checkAgainstBranchy(t, "third batch, halved phase", g2, ref, n, ph2)
	})
}
