package check

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// goldenSpecials are the float64 values whose encodings the golden hashes
// must handle like any other: NaN with payload bits, ±Inf, −0, the smallest
// subnormal and the largest finite value.
var goldenSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// TestFNV64aMatchesStdlib pins the final digest's word fold to hash/fnv:
// the stored digests were recorded through the stdlib implementation, so
// any divergence here would silently invalidate every stored trace. Over
// any float64 sequence, folding each value must equal New64a over its
// eight little-endian bytes.
func TestFNV64aMatchesStdlib(t *testing.T) {
	words := func(vs []float64) bool {
		ours := uint64(fnvOffset64)
		ref := fnv.New64a()
		var buf [8]byte
		for _, v := range vs {
			ours = fnvWord(ours, v)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			ref.Write(buf[:])
		}
		return ours == ref.Sum64()
	}
	err := quick.Check(func(bits []uint64, vs []float64) bool {
		for _, b := range bits {
			vs = append(vs, math.Float64frombits(b))
		}
		return words(vs)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !words(goldenSpecials) {
		t.Fatal("word fold diverges from hash/fnv on special values")
	}
}

// TestQuantizeMatchesSprintf pins the epoch-digest quantizer to the
// fmt.Sprintf("%.9g") rendering the stored digests were recorded with,
// byte for byte.
func TestQuantizeMatchesSprintf(t *testing.T) {
	same := func(v float64) bool {
		return string(appendQuantized(nil, v)) == fmt.Sprintf("%.9g", v)
	}
	err := quick.Check(func(bits uint64, v float64) bool {
		inRange := float64(bits>>11) / (1 << 53) * 1e4 // the magnitudes runs produce
		return same(math.Float64frombits(bits)) && same(v) && same(inRange)
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range goldenSpecials {
		if !same(v) {
			t.Errorf("%v: quantized %q, Sprintf %q", v, appendQuantized(nil, v), fmt.Sprintf("%.9g", v))
		}
	}
}

// TestGoldenSnapshotResumeEquivalence is the tentpole property: for every
// canonical scenario, a run snapshotted at an arbitrary mid-run interval
// (deliberately not an epoch boundary) and restored into a freshly built,
// process-equivalent stack must finish with exactly the digests the
// uninterrupted run pinned in testdata/golden — bit-identical continuation,
// not approximate.
func TestGoldenSnapshotResumeEquivalence(t *testing.T) {
	for _, sc := range Canonical() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ref, err := LoadTrace(goldenPath(sc.Name))
			if os.IsNotExist(err) {
				t.Skipf("no golden trace at %s; run -update first", goldenPath(sc.Name))
			}
			if err != nil {
				t.Fatal(err)
			}

			golden := NewGolden(sc.Name)
			sess, _, err := sc.Build(goldenSeed, golden)
			if err != nil {
				t.Fatal(err)
			}
			total := (sc.WarmEpochs + sc.MeasureEpochs) * 20
			mid := total/2 + 7 // mid-epoch, mid-run: the awkward split
			if got := sess.RunIntervals(mid); got != mid {
				t.Fatalf("ran %d of %d intervals", got, mid)
			}
			e := snapshot.NewEncoder()
			if err := sess.Snapshot(e); err != nil {
				t.Fatal(err)
			}
			golden.Snapshot(e)

			// Fresh, process-equivalent stack; session restored first so
			// its RunStart reset is overwritten by the golden restore.
			golden2 := NewGolden(sc.Name)
			sess2, suite2, err := sc.Build(goldenSeed, golden2)
			if err != nil {
				t.Fatal(err)
			}
			d := snapshot.NewDecoder(e.Bytes())
			if err := sess2.Restore(d); err != nil {
				t.Fatal(err)
			}
			if err := golden2.Restore(d); err != nil {
				t.Fatal(err)
			}
			if rem := d.Remaining(); rem != 0 {
				t.Fatalf("%d bytes left after restore", rem)
			}

			sum := sess2.Run()
			if sum.MeanPowerW <= 0 || sum.MeanBIPS <= 0 {
				t.Fatalf("resumed run produced a degenerate summary: %+v", sum)
			}
			if err := suite2.Err(); err != nil {
				t.Errorf("resumed run violated invariants:\n%v", err)
			}
			if err := golden2.Trace().Diff(ref); err != nil {
				t.Errorf("resumed run diverged from the uninterrupted golden: %v", err)
			}
		})
	}
}

// TestSessionSnapshotRejections pins the checkpointability rules: sessions
// that have not started cannot be snapshotted, and a snapshot cannot be
// restored into a session already under way or built for another scenario.
func TestSessionSnapshotRejections(t *testing.T) {
	sc := Canonical()[0]
	sess, _, err := sc.Build(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Snapshot(snapshot.NewEncoder()); err == nil {
		t.Error("snapshot of a not-started session should fail")
	}
	sess.RunIntervals(3)
	e := snapshot.NewEncoder()
	if err := sess.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Error("restore into an already-started session should fail")
	}

	// budget-60 runs the same stack shape at a different budget; the
	// config echo must catch the mismatch.
	other, _, err := Canonical()[5].Build(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Error("restore into a different-budget session should fail")
	}

	// A golden recorder for one scenario must refuse another's state.
	g := NewGolden(sc.Name)
	ge := snapshot.NewEncoder()
	g.Snapshot(ge)
	g2 := NewGolden("budget-60")
	if err := g2.Restore(snapshot.NewDecoder(ge.Bytes())); err == nil {
		t.Error("golden restore across scenarios should fail")
	}
}
