// Package experiments contains one harness per data table and figure of the
// paper's evaluation (§IV). Each harness builds the workload and chip the
// paper describes, runs the managed (and, where the figure calls for it,
// baseline) configurations, and returns both a rendered text report and the
// underlying series, plus headline metrics that the test suite asserts
// "shape" properties against (who wins, by roughly what factor, where the
// crossovers fall).
//
// Figures 1–4 of the paper are architecture diagrams with no data and have
// no harness. Everything else — Tables I–III and Figures 5–19 — is covered;
// see DESIGN.md for the experiment index.
package experiments

import (
	"fmt"
	"sort"

	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/trace"
)

// Options tune a harness run.
type Options struct {
	// Seed drives the whole experiment deterministically (default 1).
	Seed uint64
	// Quick shortens horizons for use in tests and smoke runs; the shapes
	// asserted by the test suite hold in both modes.
	Quick bool
	// Check fails the harness with a structured report when a run violates
	// the internal/check invariant suite every run carries. Runs whose
	// fault plan biases a sensor, sticks an actuator or drops GPM epochs
	// keep every check except budget conservation, which those faults
	// deliberately break.
	Check bool
	// Metrics, when non-nil, attaches a metrics.Observer to every run the
	// harness executes, aggregating its telemetry into the registry. Runs
	// are labelled by kind and budget ("cpm-24.00W", "maxbips-24.00W",
	// "unmanaged"), so repeated runs under the same label accumulate.
	Metrics *metrics.Registry
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// epochs returns the number of measured GPM epochs for the current mode.
func (o Options) epochs(full int) int {
	if o.Quick {
		q := full / 4
		if q < 3 {
			q = 3
		}
		return q
	}
	return full
}

// Result is a harness outcome.
type Result struct {
	// ID is the experiment identifier ("fig11", "table1", ...).
	ID string
	// Title describes the reproduced artefact.
	Title string
	// Text is the rendered report (tables and ASCII charts).
	Text string
	// Sets holds the underlying series for CSV export, keyed by a short
	// name; may be empty for pure tables.
	Sets map[string]*trace.Set
	// Metrics are the headline numbers, used by tests and EXPERIMENTS.md.
	Metrics map[string]float64
}

// Definition registers a harness.
type Definition struct {
	ID    string
	Title string
	// Paper summarises what the paper reports for this artefact.
	Paper string
	Run   func(Options) (Result, error)
}

var registry []Definition

func register(d Definition) { registry = append(registry, d) }

// All returns every registered experiment, ordered tables first then
// figures by number.
func All() []Definition {
	out := append([]Definition(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

func lessID(a, b string) bool {
	rank := func(id string) (int, int) {
		var n int
		if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
			return 0, n
		}
		if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
			return 1, n
		}
		return 2, 0
	}
	ka, na := rank(a)
	kb, nb := rank(b)
	if ka != kb {
		return ka < kb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// ByID returns the experiment registered under id.
func ByID(id string) (Definition, error) {
	for _, d := range registry {
		if d.ID == id {
			return d, nil
		}
	}
	return Definition{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
