package workload

import (
	"fmt"
	"testing"

	"github.com/cpm-sim/cpm/internal/stats"
)

// refDataAddrs reproduces the pre-optimization address generator verbatim —
// per-address `%` draws, per-address span recompute, silent clamps — against
// a caller-supplied RNG. The fast path must be draw-for-draw identical.
func refDataAddrs(rng *stats.Rand, p Profile, base uint64, seqPos *uint64, n int, ph Phase) []uint64 {
	out := make([]uint64, n)
	ws := p.WorkingSetBytes
	hot := p.HotSetBytes
	if hot > ws {
		hot = ws
	}
	if hot < blockBytes {
		hot = blockBytes
	}
	for i := 0; i < n; i++ {
		switch {
		case rng.Bool(p.SeqFraction):
			*seqPos = (*seqPos + seqStride) % ws
			out[i] = base + *seqPos
		case rng.Bool(p.HotFraction):
			out[i] = base + uint64(rng.Intn(int(hot/blockBytes)))*blockBytes
		default:
			span := float64(ws) * minf(1, ph.MemMult)
			blocks := uint64(span) / blockBytes
			if blocks == 0 {
				blocks = 1
			}
			out[i] = base + (rng.Uint64()%blocks)*blockBytes
		}
	}
	return out
}

func refFetchAddrs(rng *stats.Rand, p Profile, base uint64, codePos *uint64, n int) []uint64 {
	out := make([]uint64, n)
	code := p.CodeBytes
	for i := 0; i < n; i++ {
		if rng.Bool(0.04) {
			*codePos = uint64(rng.Intn(int(code/blockBytes))) * blockBytes
		} else {
			*codePos = (*codePos + blockBytes) % code
		}
		out[i] = base + *codePos
	}
	return out
}

// TestStreamFastPathMatchesReference drives the optimized generator and the
// verbatim pre-optimization algorithm from identically-seeded RNGs across
// every registry profile and a sweep of phase multipliers, demanding
// draw-for-draw identical streams. This is what makes the reciprocal-divide
// and conditional-subtract rewrites safe for the golden traces.
func TestStreamFastPathMatchesReference(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		g := mustStream(t, 11, 3, p)
		rng := stats.NewRand(stats.DeriveSeed(11, 0x57a7, 3))
		base := uint64(3+1) << 40
		codeBase := base | 1<<36
		var seqPos, codePos uint64
		var dst, fdst []uint64
		for step, mult := range []float64{1, 0.3, 2.5, 0.3, 1e-9, 4, 1} {
			ph := NeutralPhase()
			ph.MemMult = mult
			dst = g.DataAddrs(512, ph, dst)
			want := refDataAddrs(rng, p, base, &seqPos, 512, ph)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%s step %d: data addr %d = %#x, reference %#x", name, step, i, dst[i], want[i])
				}
			}
			fdst = g.FetchAddrs(512, fdst)
			fwant := refFetchAddrs(rng, p, codeBase, &codePos, 512)
			for i := range fdst {
				if fdst[i] != fwant[i] {
					t.Fatalf("%s step %d: fetch addr %d = %#x, reference %#x", name, step, i, fdst[i], fwant[i])
				}
			}
		}
	}
}

// branchyDataAddrs is the data-address loop as it was before the
// branch-free rewrite: one Bool test per behaviour, taken in order, so a
// sequential reference consumes one draw and a hot or cold one three. It
// advances s exactly as DataAddrs must.
func branchyDataAddrs(s *StreamGen, n int, ph Phase, dst []uint64) []uint64 {
	dst = grow(dst, n)
	ws := s.profile.WorkingSetBytes
	if ph.MemMult != s.coldMult {
		blocks := uint64(float64(ws)*minf(1, ph.MemMult)) / blockBytes
		if blocks == 0 {
			blocks = 1
		}
		s.coldDiv = newDivisor(blocks)
		s.coldMult = ph.MemMult
	}
	rng := s.rng
	seqF, hotF := s.profile.SeqFraction, s.profile.HotFraction
	for i := range dst {
		switch {
		case rng.Bool(seqF):
			s.seqPos += seqStride
			if s.seqPos >= ws {
				s.seqPos -= ws
			}
			dst[i] = s.dataBase + s.seqPos
		case rng.Bool(hotF):
			dst[i] = s.dataBase + s.hotDiv.mod(rng.Uint64())*blockBytes
		default:
			dst[i] = s.dataBase + s.coldDiv.mod(rng.Uint64())*blockBytes
		}
	}
	return dst
}

// checkAgainstBranchy generates n data addresses from g and from ref (a
// generator in the same state) through the branchy reference, and fails
// unless the addresses, the RNG states and the walk cursors agree.
func checkAgainstBranchy(t *testing.T, what string, g, ref *StreamGen, n int, ph Phase) {
	t.Helper()
	got := g.DataAddrs(n, ph, nil)
	want := branchyDataAddrs(ref, n, ph, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d addresses, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: data addr %d = %#x, reference %#x", what, i, got[i], want[i])
		}
	}
	if g.rng.State() != ref.rng.State() || g.seqPos != ref.seqPos {
		t.Fatalf("%s: rng state %#x, cursor %#x; reference %#x, %#x",
			what, g.rng.State(), g.seqPos, ref.rng.State(), ref.seqPos)
	}
}

// TestDataAddrsMatchesBranchyLoop pins the branch-free generator to the
// branchy loop it replaced, draw for draw: every registry profile (and
// each with a working set of a few blocks, so sequential walks wrap around
// it), random seeds and cores, a phase that changes between calls, and
// batch sizes 0, 1, 7 and 2048, with fetches interleaved as the interval
// kernel does.
func TestDataAddrsMatchesBranchyLoop(t *testing.T) {
	r := stats.NewRand(2024)
	var profiles []Profile
	for _, name := range Names() {
		p := MustByName(name)
		small := p
		small.Name += "-small"
		small.WorkingSetBytes = 1000 + uint64(r.Intn(1000))
		small.HotSetBytes = blockBytes * 4
		profiles = append(profiles, p, small)
	}
	for _, p := range profiles {
		name := p.Name
		for trial := 0; trial < 3; trial++ {
			seed, core := r.Uint64(), r.Intn(64)
			g := mustStream(t, seed, core, p)
			ref := mustStream(t, seed, core, p)
			for step := 0; step < 12; step++ {
				ph := NeutralPhase()
				ph.MemMult = []float64{1, 0.3, 2.5, 1e-9, r.Range(0, 3)}[r.Intn(5)]
				n := []int{0, 1, 7, 2048}[step%4]
				checkAgainstBranchy(t, fmt.Sprintf("%s seed %#x core %d step %d", name, seed, core, step), g, ref, n, ph)
				g.FetchAddrs(n, nil)
				ref.FetchAddrs(n, nil)
			}
		}
	}
}

// TestNewStreamGenRejectsInvalidProfiles pins the satellite bugfix: profiles
// the generator used to clamp silently are now rejected at construction.
func TestNewStreamGenRejectsInvalidProfiles(t *testing.T) {
	valid := MustByName("bschls")

	tiny := valid
	tiny.HotSetBytes = blockBytes / 2 // below one cache block
	if _, err := NewStreamGen(1, 0, tiny); err == nil {
		t.Error("hot set smaller than a block should be rejected")
	}

	wide := valid
	wide.HotSetBytes = wide.WorkingSetBytes * 2 // hot set outside working set
	if _, err := NewStreamGen(1, 0, wide); err == nil {
		t.Error("hot set beyond the working set should be rejected")
	}

	code := valid
	code.CodeBytes = blockBytes - 1
	if _, err := NewStreamGen(1, 0, code); err == nil {
		t.Error("code footprint smaller than a block should be rejected")
	}

	if _, err := NewStreamGen(1, 0, valid); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

// TestDataAddrsSteadyStateAllocs guards the zero-allocation contract of the
// interval loop's address generation.
func TestDataAddrsSteadyStateAllocs(t *testing.T) {
	g := mustStream(t, 2, 0, MustByName("sclust"))
	ph := NeutralPhase()
	dst := g.DataAddrs(2048, ph, nil)
	fdst := g.FetchAddrs(512, nil)
	if n := testing.AllocsPerRun(50, func() {
		dst = g.DataAddrs(2048, ph, dst)
		fdst = g.FetchAddrs(512, fdst)
	}); n != 0 {
		t.Errorf("steady-state address generation allocates %v times per interval, want 0", n)
	}
}

// BenchmarkStreamGen measures the per-interval address-generation cost for a
// memory-bound profile (2048 data + 512 fetch addresses, the interval-kernel
// sampling shape).
func BenchmarkStreamGen(b *testing.B) {
	g, err := NewStreamGen(2, 0, MustByName("sclust"))
	if err != nil {
		b.Fatal(err)
	}
	ph := NeutralPhase()
	dst := make([]uint64, 2048)
	fdst := make([]uint64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.DataAddrs(2048, ph, dst)
		fdst = g.FetchAddrs(512, fdst)
	}
}
