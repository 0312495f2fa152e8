package check

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/sweepd"
)

// resiliencePoints wraps every canonical scenario as a migratable sweepd
// point: golden recorder attached as both observer and aux checkpoint
// state, so a migration ships the digest accumulator along with the
// session. The goldens/suites slices hold the FINAL incarnation per point
// (the one that ran to completion).
func resiliencePoints(scenarios []Scenario) ([]sweepd.Point, []*Golden, []*Suite) {
	goldens := make([]*Golden, len(scenarios))
	suites := make([]*Suite, len(scenarios))
	pts := make([]sweepd.Point, len(scenarios))
	for i, sc := range scenarios {
		i, sc := i, sc
		pts[i] = sweepd.Point{
			Name: sc.Name,
			Build: func() (*sweepd.Instance, error) {
				g := NewGolden(sc.Name)
				sess, suite, err := sc.Build(goldenSeed, g)
				if err != nil {
					return nil, err
				}
				goldens[i] = g
				suites[i] = suite
				return &sweepd.Instance{Session: sess, Aux: []sweepd.State{g}}, nil
			},
		}
	}
	return pts, goldens, suites
}

// TestResilientKillEquivalenceAllScenarios is the crash-safety tentpole
// proof: every canonical scenario driven through the sweepd coordinator
// with a worker kill injected at EVERY interval boundary (and a checkpoint
// taken at every boundary, so each kill rolls back exactly one interval)
// must finish with digests identical to the pinned goldens recorded by
// uninterrupted runs — bit-identical results under maximal fault pressure.
func TestResilientKillEquivalenceAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full nine-scenario kill replay skipped in -short mode")
	}
	scenarios := Canonical()
	pts, goldens, suites := resiliencePoints(scenarios)
	c, err := sweepd.New(pts, sweepd.Config{
		Workers:         2,
		CheckpointEvery: 1,
		KillEvery:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	wantKills := 0
	for _, sc := range scenarios {
		wantKills += (sc.WarmEpochs + sc.MeasureEpochs) * 20
	}
	st := c.Stats()
	if st.Kills != wantKills {
		t.Errorf("injected %d kills, want one per interval boundary = %d", st.Kills, wantKills)
	}
	if st.Migrations != wantKills || st.Restores == 0 {
		t.Errorf("migrations=%d restores=%d, want %d migrations with checkpoint resumes", st.Migrations, st.Restores, wantKills)
	}
	for i, sc := range scenarios {
		if err := suites[i].Err(); err != nil {
			t.Errorf("scenario %s violated invariants under kill injection:\n%v", sc.Name, err)
		}
		if err := goldens[i].Trace().Diff(loadRef(t, sc.Name)); err != nil {
			t.Errorf("scenario %s diverged from its unkilled golden under kill injection: %v", sc.Name, err)
		}
	}
}

// TestResilientRollbackCadence exercises the awkward cadence pairing where
// kills land between checkpoints (checkpoint every 5, kill every 7): each
// migration rolls back and deterministically re-executes lost intervals,
// and the digests still match the pinned golden.
func TestResilientRollbackCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("rollback replay skipped in -short mode")
	}
	scenarios := Canonical()[:1] // cpm-default
	pts, goldens, suites := resiliencePoints(scenarios)
	c, err := sweepd.New(pts, sweepd.Config{
		Workers:         1,
		CheckpointEvery: 5,
		KillEvery:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	total := (scenarios[0].WarmEpochs + scenarios[0].MeasureEpochs) * 20
	if want := total / 7; st.Kills != want {
		t.Errorf("kills = %d, want %d", st.Kills, want)
	}
	if st.Restores == 0 {
		t.Error("no migration resumed from a checkpoint")
	}
	if err := suites[0].Err(); err != nil {
		t.Errorf("invariants violated under rollback cadence:\n%v", err)
	}
	if err := goldens[0].Trace().Diff(loadRef(t, scenarios[0].Name)); err != nil {
		t.Errorf("rollback cadence diverged from the unkilled golden: %v", err)
	}
}
