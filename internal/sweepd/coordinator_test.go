package sweepd

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/workload"
)

// countState is a stateful observer carried as aux checkpoint state: it
// counts observed intervals, so any migration that dropped or replayed
// observer state shows up as a count mismatch.
type countState struct {
	steps int
}

func (c *countState) RunStart(engine.RunInfo)   { c.steps = 0 }
func (c *countState) ObserveStep(engine.Step)   { c.steps++ }
func (c *countState) ObserveEpoch(engine.Epoch) {}
func (c *countState) RunEnd(*engine.Summary)    {}

func (c *countState) Snapshot(e *snapshot.Encoder) { e.Int(c.steps) }
func (c *countState) Restore(d *snapshot.Decoder) error {
	c.steps = d.Int()
	return d.Err()
}

// testInstance builds a small unmanaged session (1 warm + 2 measure epochs
// = 60 intervals) with a countState attached as both observer and aux.
func testInstance(t testing.TB, seed uint64, extra ...engine.Observer) (*Instance, *countState) {
	t.Helper()
	inst, cs, err := buildTestInstance(seed, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return inst, cs
}

func buildTestInstance(seed uint64, extra ...engine.Observer) (*Instance, *countState, error) {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = seed
	cmp, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	cs := &countState{}
	obs := append([]engine.Observer{cs}, extra...)
	sess, err := engine.NewSession(engine.NewChipRunner(cmp), engine.SessionConfig{
		WarmEpochs: 1, MeasureEpochs: 2, Label: "sweepd-test",
	}, obs...)
	if err != nil {
		return nil, nil, err
	}
	return &Instance{Session: sess, Aux: []State{cs}}, cs, nil
}

func testPoints(t testing.TB, n int) ([]Point, []*countState) {
	t.Helper()
	pts := make([]Point, n)
	counts := make([]*countState, n)
	for i := range pts {
		i := i
		seed := uint64(i + 1)
		name := "pt-" + string(rune('a'+i))
		pts[i] = Point{Name: name, Build: func() (*Instance, error) {
			inst, cs, err := buildTestInstance(seed)
			if err != nil {
				return nil, err
			}
			counts[i] = cs // final incarnation wins; happens-before via events
			return inst, nil
		}}
	}
	return pts, counts
}

func summariesEqual(t *testing.T, got, want []engine.Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d summaries, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.MeanPowerW != w.MeanPowerW || g.MeanBIPS != w.MeanBIPS || g.Instructions != w.Instructions {
			t.Errorf("point %d summary diverged: got power=%v bips=%v instr=%v, want power=%v bips=%v instr=%v",
				i, g.MeanPowerW, g.MeanBIPS, g.Instructions, w.MeanPowerW, w.MeanBIPS, w.Instructions)
		}
	}
}

// reference runs the same points straight through, no coordinator.
func reference(t *testing.T, n int) []engine.Summary {
	t.Helper()
	sums := make([]engine.Summary, n)
	for i := 0; i < n; i++ {
		inst, _ := testInstance(t, uint64(i+1))
		sums[i] = inst.Session.Run()
	}
	return sums
}

func TestCoordinatorPlainRun(t *testing.T) {
	pts, counts := testPoints(t, 3)
	c, err := New(pts, Config{Workers: 2, CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, sums, reference(t, 3))
	st := c.Stats()
	if st.Kills != 0 || st.Migrations != 0 {
		t.Errorf("uninjected run reported kills=%d migrations=%d", st.Kills, st.Migrations)
	}
	// 60 intervals at cadence 20 with the final boundary skipped = 2 per point.
	if st.Checkpoints != 6 {
		t.Errorf("checkpoints = %d, want 6", st.Checkpoints)
	}
	if st.CheckpointBytes <= 0 || st.MaxCheckpointBytes <= 0 {
		t.Errorf("checkpoint byte accounting empty: %+v", st)
	}
	for i, cs := range counts {
		if cs.steps != 60 {
			t.Errorf("point %d observed %d intervals, want 60", i, cs.steps)
		}
	}
}

// TestCoordinatorKillEquivalence is the core contract: a sweep killed at
// EVERY interval boundary produces summaries and observer state identical
// to an unkilled run.
func TestCoordinatorKillEquivalence(t *testing.T) {
	want := reference(t, 3)
	for _, killEvery := range []int{1, 7} {
		pts, counts := testPoints(t, 3)
		var log bytes.Buffer
		reg := metrics.NewRegistry()
		c, err := New(pts, Config{
			Workers:         2,
			CheckpointEvery: 5,
			KillEvery:       killEvery,
			Log:             &log,
			Metrics:         NewInstruments(reg, "test"),
		})
		if err != nil {
			t.Fatal(err)
		}
		sums, err := c.Run()
		if err != nil {
			t.Fatalf("killEvery=%d: %v", killEvery, err)
		}
		summariesEqual(t, sums, want)
		st := c.Stats()
		wantKills := 3 * (60 / killEvery) // every boundary fires exactly once per point
		if st.Kills != wantKills || st.Migrations != wantKills {
			t.Errorf("killEvery=%d: kills=%d migrations=%d, want %d each", killEvery, st.Kills, st.Migrations, wantKills)
		}
		if st.Restores == 0 {
			t.Errorf("killEvery=%d: no migration resumed from a checkpoint", killEvery)
		}
		for i, cs := range counts {
			if cs.steps != 60 {
				t.Errorf("killEvery=%d: point %d observer counted %d intervals, want 60 (aux state diverged across migration)",
					killEvery, i, cs.steps)
			}
		}
		if !strings.Contains(log.String(), "migrating") {
			t.Errorf("killEvery=%d: no migration logged:\n%s", killEvery, log.String())
		}
		// A kill at interval 7 resumes from the checkpoint taken at 5.
		if killEvery == 7 && !strings.Contains(log.String(), "at interval 7; migrating (resume from checkpoint @5)") {
			t.Errorf("migration log does not name the latest checkpoint:\n%s", log.String())
		}
		if v := c.cfg.Metrics.Migrations.Value(); int(v) != wantKills {
			t.Errorf("killEvery=%d: cpmsweep_migrations_total = %v, want %d", killEvery, v, wantKills)
		}
		if v := c.cfg.Metrics.Checkpoints.Value(); int(v) != st.Checkpoints {
			t.Errorf("killEvery=%d: cpmsweep_checkpoints_total = %v, stats say %d", killEvery, v, st.Checkpoints)
		}
	}
}

// TestCoordinatorPanicContainment: a point that panics mid-simulation fails
// with an error naming it; the process survives and every other point
// completes with correct results.
func TestCoordinatorPanicContainment(t *testing.T) {
	pts, _ := testPoints(t, 3)
	bomb := engine.Funcs{OnStep: func(s engine.Step) {
		if s.Index == 30 {
			panic("injected fault")
		}
	}}
	pts[1].Build = func() (*Instance, error) {
		inst, _, err := buildTestInstance(2, bomb)
		return inst, err
	}
	c, err := New(pts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := c.Run()
	if err == nil {
		t.Fatal("panicking point did not surface an error")
	}
	for _, frag := range []string{"point 1", "pt-b", "panicked: injected fault", "goroutine"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not contain %q", err.Error(), frag)
		}
	}
	want := reference(t, 3)
	if sums[0].Instructions != want[0].Instructions || sums[2].Instructions != want[2].Instructions {
		t.Error("surviving points diverged after a sibling panicked")
	}
	if sums[1].Instructions != 0 {
		t.Errorf("failed point carries a summary: %+v", sums[1])
	}
}

// TestCoordinatorReleasesFinishedPoints: once a point is done or has
// failed, the coordinator drops its last checkpoint (a finished point is
// never migrated again, a failed one never restarts), so the memory a
// sweep holds does not grow with its point count.
func TestCoordinatorReleasesFinishedPoints(t *testing.T) {
	pts, _ := testPoints(t, 3)
	bomb := engine.Funcs{OnStep: func(s engine.Step) {
		if s.Index == 30 {
			panic("injected fault")
		}
	}}
	pts[1].Build = func() (*Instance, error) {
		inst, _, err := buildTestInstance(2, bomb)
		return inst, err
	}
	c, err := New(pts, Config{Workers: 2, CheckpointEvery: 5, KillEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "pt-b") {
		t.Fatalf("Run error = %v, want point pt-b's failure", err)
	}
	if st := c.Stats(); st.Checkpoints == 0 || st.Restores == 0 {
		t.Fatalf("stats %+v: the run must checkpoint and restore", st)
	}
	for i, ck := range c.latest {
		if ck != nil {
			t.Errorf("point %d (%s) still holds its %d-byte checkpoint after Run", i, pts[i].Name, len(ck))
		}
	}
}

// TestCoordinatorBoundaryCheck: an Instance.Check error fails the point at
// the next interval boundary instead of letting a later checkpoint migrate
// past it.
func TestCoordinatorBoundaryCheck(t *testing.T) {
	pts, _ := testPoints(t, 2)
	build := pts[1].Build
	pts[1].Build = func() (*Instance, error) {
		inst, err := build()
		if err != nil {
			return nil, err
		}
		inst.Check = func() error {
			if inst.Session.Completed() >= 13 {
				return errors.New("budget invariant violated")
			}
			return nil
		}
		return inst, nil
	}
	c, err := New(pts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "check failed at interval 13") ||
		!strings.Contains(err.Error(), "budget invariant violated") {
		t.Errorf("boundary check error = %v", err)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	pt := Point{Name: "a", Build: func() (*Instance, error) { return nil, nil }}
	cases := []struct {
		name string
		pts  []Point
		cfg  Config
		want string
	}{
		{"no points", nil, Config{}, "no points"},
		{"unnamed", []Point{{Build: pt.Build}}, Config{}, "no name"},
		{"no build", []Point{{Name: "a"}}, Config{}, "no Build"},
		{"duplicate names", []Point{pt, pt}, Config{}, "share name"},
		{"negative kill", []Point{pt}, Config{KillEvery: -1}, "must be >= 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.pts, c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("New = %v, want error containing %q", err, c.want)
			}
		})
	}
	c, err := New([]Point{pt}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.ran = true
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "already run") {
		t.Errorf("second Run = %v, want already-run error", err)
	}
}

func TestKillPlanFiresOncePerBoundary(t *testing.T) {
	p := &killPlan{every: 5}
	if p.fire("x", 3) {
		t.Error("fired off-cadence")
	}
	if p.fire("x", 0) {
		t.Error("fired at interval 0")
	}
	if !p.fire("x", 5) {
		t.Error("did not fire at first boundary")
	}
	if p.fire("x", 5) {
		t.Error("re-fired a spent boundary (re-executed intervals must not re-kill)")
	}
	if !p.fire("y", 5) {
		t.Error("plans must be per-point")
	}
	var nilPlan *killPlan
	if nilPlan.fire("x", 5) {
		t.Error("nil plan fired")
	}
	if (&killPlan{}).fire("x", 5) {
		t.Error("disabled plan fired")
	}
}
