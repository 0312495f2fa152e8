package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestResilientSweepMatchesDefault is the CLI-level crash-equivalence
// proof: the resilient route must emit CSV byte-identical to the default
// farm route — with no faults, with a kill injected at EVERY interval
// boundary, and with a rollback-heavy cadence where kills land between
// checkpoints.
func TestResilientSweepMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("resilient sweeps in -short mode")
	}
	cases := []struct {
		name                 string
		warm                 int
		killEvery, ckptEvery int
		workers              int
	}{
		{"no faults", 1, 0, 0, 2},
		{"kill every boundary", 1, 1, 1, 2},
		{"rollback cadence", 1, 7, 5, 3},
		{"serial with kills", 1, 4, 5, 1},
		{"no warm-up with kills", 0, 7, 5, 2},
	}
	want := map[int][]byte{}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(1)
			o.Fracs = []float64{0.7, 0.8, 0.9}
			o.Warm = c.warm
			o.Check = true
			if want[c.warm] == nil {
				want[c.warm] = runSweep(t, o)
			}
			ro := o
			ro.Resilient = true
			ro.KillEvery = c.killEvery
			ro.CkptEvery = c.ckptEvery
			ro.Workers = c.workers
			var out, log bytes.Buffer
			if err := sweep(ro, &out, &log); err != nil {
				t.Fatalf("resilient sweep: %v\nlog:\n%s", err, log.String())
			}
			if !bytes.Equal(out.Bytes(), want[c.warm]) {
				t.Errorf("resilient CSV differs from the default route:\n--- default ---\n%s--- resilient ---\n%s",
					want[c.warm], out.Bytes())
			}
			if !strings.Contains(log.String(), "resilient sweep:") {
				t.Errorf("no coordinator stats logged:\n%s", log.String())
			}
			if c.killEvery > 0 && !strings.Contains(log.String(), "migrating") {
				t.Errorf("kills injected but no migration logged:\n%s", log.String())
			}
		})
	}
}

// TestResilientWarmstartMatchesScalar pins the warm-start fork path:
// warm-started resilient sweeps (budget points forked from warm chip
// snapshots) must match the scalar oracle's warm-started CSV even while
// workers are being killed.
func TestResilientWarmstartMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-started resilient sweep in -short mode")
	}
	o := testOptions(1)
	o.Fracs = []float64{0.7, 0.9}
	o.WarmStart = true
	o.Check = true
	want := scalarCSV(t, o)

	ro := o
	ro.Resilient = true
	ro.KillEvery = 3
	ro.CkptEvery = 5
	ro.Workers = 4
	var out, log bytes.Buffer
	if err := sweep(ro, &out, &log); err != nil {
		t.Fatalf("warm-started resilient sweep: %v\nlog:\n%s", err, log.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("warm-started resilient CSV differs from scalar:\n--- scalar ---\n%s--- resilient ---\n%s",
			want, out.Bytes())
	}
}

func TestParseSweepCLIResilient(t *testing.T) {
	o, err := parseSweepCLI([]string{"-resilient", "-kill-every", "3", "-ckpt-every", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Resilient || o.KillEvery != 3 || o.CkptEvery != 5 {
		t.Errorf("resilient flags not threaded: %+v", o)
	}
	rejects := []struct {
		name string
		argv []string
		want string
	}{
		{"kill without resilient", []string{"-kill-every", "2"}, "require -resilient"},
		{"ckpt without resilient", []string{"-ckpt-every", "5"}, "require -resilient"},
		{"workers without resilient", []string{"-workers", "2"}, "-workers, -kill-every and -ckpt-every require -resilient"},
		{"negative kill", []string{"-resilient", "-kill-every", "-1"}, "-kill-every must be >= 0"},
		{"negative ckpt", []string{"-resilient", "-ckpt-every", "-1"}, "-ckpt-every must be >= 0"},
	}
	for _, c := range rejects {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseSweepCLI(c.argv, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseSweepCLI(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}
