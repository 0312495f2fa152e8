package check

import (
	"hash/fnv"
	"os"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// TestFNV64aMatchesStdlib pins the settable hash to hash/fnv: the golden
// final digests were recorded through the stdlib implementation, so any
// divergence here would silently invalidate every stored trace.
func TestFNV64aMatchesStdlib(t *testing.T) {
	err := quick.Check(func(chunks [][]byte) bool {
		ours := fnv64a{sum: fnvOffset64}
		ref := fnv.New64a()
		for _, c := range chunks {
			ours.Write(c)
			ref.Write(c)
		}
		return ours.Sum64() == ref.Sum64()
	}, nil)
	if err != nil {
		t.Fatal(err)
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
