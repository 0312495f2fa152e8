package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/metrics"
)

func TestParseCLIValid(t *testing.T) {
	c, err := parseCLI([]string{"-quick", "-seed", "7", "-check", "run", "fig11", "fig12"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.opts.Quick || c.opts.Seed != 7 || !c.opts.Check {
		t.Errorf("options not threaded: %+v", c.opts)
	}
	if c.cmd != "run" || len(c.ids) != 2 || c.ids[0] != "fig11" {
		t.Errorf("command not parsed: %+v", c)
	}
}

func TestParseCLIDefaults(t *testing.T) {
	c, err := parseCLI([]string{"tables"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Seed != 1 || c.opts.Quick || c.opts.Check || c.workers != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.ids) != 3 || c.ids[0] != "table1" {
		t.Errorf("tables shorthand wrong: %v", c.ids)
	}
}

func TestParseCLIRunAll(t *testing.T) {
	c, err := parseCLI([]string{"run", "all"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ids) < 10 {
		t.Errorf("run all expanded to only %d experiments", len(c.ids))
	}
	for _, id := range c.ids {
		if id == "all" {
			t.Error("sentinel 'all' leaked into the ID list")
		}
	}
}

func TestParseCLIDiagFlags(t *testing.T) {
	c, err := parseCLI([]string{"-metrics", "-", "-pprof", "localhost:6060", "-trace", "run.trace", "list"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.diag == nil {
		t.Fatal("diag flags not bound")
	}
	if c.diag.MetricsPath != "-" || c.diag.PprofAddr != "localhost:6060" || c.diag.TracePath != "run.trace" {
		t.Errorf("diag flags not threaded: %+v", c.diag)
	}
}

func TestParseCLIScenario(t *testing.T) {
	c, err := parseCLI([]string{"scenario", "cpm-default"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.cmd != "scenario" || len(c.ids) != 1 || c.ids[0] != "cpm-default" {
		t.Errorf("scenario command not parsed: %+v", c)
	}
	c, err = parseCLI([]string{"scenario", "all"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ids) != len(check.Canonical()) {
		t.Errorf("scenario all expanded to %d names, want %d", len(c.ids), len(check.Canonical()))
	}
	for _, id := range c.ids {
		if id == "all" {
			t.Error("sentinel 'all' leaked into the scenario list")
		}
	}
}

func TestParseCLIRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"zero seed", []string{"-seed", "0", "run", "fig11"}, "-seed must be non-zero"},
		{"negative workers", []string{"-workers", "-2", "run", "fig11"}, "-workers must be >= 0"},
		{"no command", []string{"-quick"}, "need a command"},
		{"unknown command", []string{"frobnicate"}, "unknown command"},
		{"run without ids", []string{"run"}, "need experiment IDs"},
		{"scenario without names", []string{"scenario"}, "need scenario names"},
		{"unknown scenario", []string{"scenario", "nope"}, "unknown scenario"},
		{"unknown flag", []string{"-frob", "run", "fig11"}, "not defined"},
		{"resume on run", []string{"-resume", "x.ckpt", "-quick", "run", "table1"}, "-resume applies only to scenario"},
		{"resume on checkpoint", []string{"-resume", "x.ckpt", "checkpoint", "cpm-default"}, "-resume applies only to scenario"},
		{"output on tables", []string{"-o", "x.ckpt", "tables"}, "-o applies only to checkpoint"},
		{"at on tables", []string{"-at", "40", "tables"}, "-at applies only to checkpoint"},
		{"zero at on scenario", []string{"-at", "0", "scenario", "cpm-default"}, "-at applies only to checkpoint"},
		{"output on scenario", []string{"-o", "x.ckpt", "scenario", "cpm-default"}, "-o applies only to checkpoint"},
		{"quick on scenario", []string{"-quick", "scenario", "cpm-default"}, "cpmsim scenario: -quick applies only to run and tables"},
		{"csv on scenario", []string{"-csv", "/tmp/x", "scenario", "cpm-default"}, "-csv applies only to run and tables"},
		{"workers on scenario", []string{"-workers", "3", "scenario", "cpm-default"}, "-workers applies only to run and tables"},
		{"check on scenario", []string{"-check", "scenario", "cpm-default"}, "-check applies only to run and tables"},
		{"default workers on checkpoint", []string{"-workers", "1", "checkpoint", "cpm-default"}, "cpmsim checkpoint: -workers applies only to run and tables"},
		{"quick on checkpoint", []string{"-quick", "checkpoint", "cpm-default"}, "-quick applies only to run and tables"},
		{"csv on list", []string{"-csv", "/tmp/x", "list"}, "cpmsim list: -csv applies only to run and tables"},
		{"unknown command before stray flag", []string{"-quick", "frobnicate"}, "unknown command"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseCLI(c.argv, io.Discard)
			if err == nil {
				t.Fatalf("parseCLI(%v) accepted", c.argv)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseCLI(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}

// TestDefaultCheckpointAt pins the -at default: the end of warmup when a
// warm-up window exists, the run's midpoint when it does not. The zero-warmup
// row is the regression case — the old default resolved to 0 and failed the
// range check with a misleading "outside the run's interval range" error even
// though the user never passed -at.
func TestDefaultCheckpointAt(t *testing.T) {
	cases := []struct {
		name        string
		warm, total int
		want        int
	}{
		{"default scenario windows", 40, 120, 40},
		{"long warmup", 200, 500, 200},
		{"zero warmup", 0, 120, 60},
		{"zero warmup single epoch", 0, 20, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := defaultCheckpointAt(c.warm, c.total)
			if got != c.want {
				t.Errorf("defaultCheckpointAt(%d, %d) = %d, want %d", c.warm, c.total, got, c.want)
			}
			if got <= 0 || got >= c.total {
				t.Errorf("default %d outside the valid (0, %d) range", got, c.total)
			}
		})
	}
}

// TestScenarioMetricsJSONRoundTrip is the CLI-level regression test for
// non-finite telemetry: a scenario run plus a zero-access miss-rate gauge
// (NaN, as sim.Stats.MissRate reports before any access) must still export
// JSON that encoding/json accepts, with the NaN encoded as null.
func TestScenarioMetricsJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario replay in -short mode")
	}
	c, err := parseCLI([]string{"-metrics", filepath.Join(t.TempDir(), "telemetry.json"), "scenario", "cpm-default"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c.opts.Metrics = c.diag.Registry()
	if c.opts.Metrics == nil {
		t.Fatal("registry not created for -metrics")
	}
	var out bytes.Buffer
	if err := runScenarios(c, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario cpm-default") {
		t.Errorf("no scenario report:\n%s", out.String())
	}
	// A zero-access interval reports MissRate() == NaN; the exporter must
	// encode it as null rather than produce invalid JSON.
	c.opts.Metrics.GaugeVec("cpm_cache_miss_rate",
		"Cumulative cache miss rate by hierarchy level (NaN until the level is accessed).",
		"run", "level").With("zero-access", "l1i").Set(math.NaN())
	if err := c.diag.WriteMetrics(c.opts.Metrics, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.diag.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported telemetry is not valid JSON: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"value": null`)) {
		t.Errorf("NaN miss rate not encoded as null:\n%s", raw)
	}
	if !bytes.Contains(raw, []byte(`"cpm_intervals_total"`)) {
		t.Errorf("scenario telemetry missing from export:\n%s", raw)
	}
}

// TestScenarioTelemetryFamilies pins the scenario export to the full run
// plane: a managed canonical scenario must carry the PIC tracking-error
// samples and the chip (cache, DVFS residency) and controller-state series,
// not only the label-level counters.
func TestScenarioTelemetryFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario replay in -short mode")
	}
	c, err := parseCLI([]string{"-metrics", filepath.Join(t.TempDir(), "telemetry.prom"), "scenario", "cpm-default"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c.opts.Metrics = c.diag.Registry()
	if err := runScenarios(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := c.opts.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(&prom)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]metrics.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"cpm_cache_hits_total", "cpm_cache_misses_total",
		"cpm_island_level_residency_intervals_total",
		"cpm_pic_integrator", "cpm_pic_freq_norm", "cpm_pic_target_frac", "cpm_pic_est_power_frac",
	} {
		if len(byName[want].Samples) == 0 {
			t.Errorf("export lacks %s", want)
		}
	}
	count := -1.0
	for _, s := range byName["cpm_pic_tracking_error_frac"].Samples {
		if s.Name == "cpm_pic_tracking_error_frac_count" && s.Labels["run"] == "cpm-default" {
			count = s.Value
		}
	}
	if count <= 0 {
		t.Errorf("cpm_pic_tracking_error_frac_count{run=\"cpm-default\"} = %v, want > 0", count)
	}
}

// TestCheckpointResume drives checkpoint → -resume end to end: a clean
// resume prints the uninterrupted run's line plus " (resumed)", while a
// checkpoint with one byte flipped mid-file, or resumed into another
// scenario or seed, is an error rather than a divergent run.
func TestCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario replay in -short mode")
	}
	run := func(argv ...string) (string, error) {
		t.Helper()
		c, err := parseCLI(argv, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if c.cmd == "checkpoint" {
			err = runCheckpoint(c, &out)
		} else {
			err = runScenarios(c, &out)
		}
		return out.String(), err
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cpm-default.ckpt")
	full, err := run("scenario", "cpm-default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run("-o", ckpt, "checkpoint", "cpm-default"); err != nil {
		t.Fatal(err)
	}
	resumed, err := run("-resume", ckpt, "scenario", "cpm-default")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(full, "\n") + " (resumed)\n"; resumed != want {
		t.Errorf("resumed run printed %q, want %q", resumed, want)
	}

	clean, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	rejects := [][]string{
		{"-resume", ckpt, "scenario", "budget-60"},
		{"-seed", "2", "-resume", ckpt, "scenario", "cpm-default"},
	}
	// Offsets inside float payloads, where a flip still decodes to a
	// structurally valid session.
	for i, frac := range [][2]int{{1, 3}, {2, 5}, {3, 5}} {
		b := append([]byte(nil), clean...)
		b[len(b)*frac[0]/frac[1]] ^= 1 << 6
		flipped := filepath.Join(dir, fmt.Sprintf("flipped%d.ckpt", i))
		if err := os.WriteFile(flipped, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rejects = append(rejects, []string{"-resume", flipped, "scenario", "cpm-default"})
	}
	for _, argv := range rejects {
		if out, err := run(argv...); err == nil {
			t.Errorf("%v resumed without error: %s", argv, out)
		}
	}
}
