package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/metrics"
)

// TestRunRejects is the table of malformed submissions: every reject path
// must answer before any simulation is admitted, with the uniform JSON
// error document.
func TestRunRejects(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		doc  string
		code int
		frag string // substring the error must carry
	}{
		{"empty body", "", 400, "decoding request"},
		{"malformed JSON", "{", 400, "decoding request"},
		{"not an object", "[1,2]", 400, "decoding request"},
		{"unknown field", `{"scenario":"cpm-default","sead":2}`, 400, "sead"},
		{"trailing data", `{"scenario":"cpm-default"} {}`, 400, "trailing data"},
		{"missing scenario", `{"seed":1}`, 400, "needs a scenario"},
		{"unknown scenario", `{"scenario":"warp-drive"}`, 404, "unknown scenario"},
		{"overflowing budget", `{"scenario":"cpm-default","budget_frac":1e999}`, 400, "decoding request"},
		{"negative budget", `{"scenario":"cpm-default","budget_frac":-0.5}`, 400, "budget_frac"},
		{"budget above one", `{"scenario":"cpm-default","budget_frac":1.5}`, 400, "budget_frac"},
		{"negative warm window", `{"scenario":"cpm-default","warm_epochs":-1}`, 400, "warm_epochs"},
		{"oversized warm window", `{"scenario":"cpm-default","warm_epochs":65}`, 400, "warm_epochs"},
		{"oversized measure window", `{"scenario":"cpm-default","measure_epochs":257}`, 400, "measure_epochs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts, tc.doc)
			body := wantStatus(t, resp, tc.code)
			var ed struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &ed); err != nil || ed.Error == "" {
				t.Fatalf("error body is not the JSON error document: %s", body)
			}
			if !strings.Contains(ed.Error, tc.frag) {
				t.Errorf("error %q does not mention %q", ed.Error, tc.frag)
			}
		})
	}
	if st := srv.Stats(); st.Runs != 0 || st.Misses != 0 {
		t.Errorf("reject paths admitted work: %+v", st)
	}
}

// TestValidateNonFinite covers the budget values JSON itself cannot carry:
// the codec-level guard mirrors the gpm/pic non-finite rejections.
func TestValidateNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := Request{Scenario: "cpm-default", BudgetFrac: bad}
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("budget_frac %v: err %v, want non-finite rejection", bad, err)
		}
	}
	if err := (Request{Scenario: "cpm-default", BudgetFrac: 0.8}).Validate(); err != nil {
		t.Errorf("finite budget rejected: %v", err)
	}
}

// TestMethodNotAllowed: the route patterns are method-qualified, so a GET
// on the run endpoint is a 405, not a 404 or an empty run.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestScenariosEndpoint pins the discovery document to the canonical set.
func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenarios []string `json:"scenarios"`
	}
	if err := json.Unmarshal(wantStatus(t, resp, 200), &doc); err != nil {
		t.Fatal(err)
	}
	want := check.ScenarioNames()
	if len(doc.Scenarios) != len(want) {
		t.Fatalf("%d scenarios listed, want %d", len(doc.Scenarios), len(want))
	}
	for i := range want {
		if doc.Scenarios[i] != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, doc.Scenarios[i], want[i])
		}
	}
}

// TestMetricsEndpoint runs one short simulation and validates the full
// /metrics exposition — server plane and run plane — through the strict
// Prometheus text parser. The run plane is the spec's telemetry observer,
// wired to the chip and PICs: a managed run carries its PIC tracking-error
// samples and the cache, DVFS-residency and controller-state series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	wantStatus(t, postJSON(t, ts, runDoc(shortRun("cpm-default", goldenSeed))), 200)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := wantStatus(t, resp, 200)
	fams, err := metrics.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v", err)
	}
	byName := map[string]metrics.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"cpmserve_requests_total",
		"cpmserve_cache_misses_total",
		"cpmserve_runs_total",
		"cpmserve_run_seconds",
		"cpm_intervals_total", // the run-plane observer wired per job
		"cpm_cache_hits_total", "cpm_cache_misses_total",
		"cpm_island_level_residency_intervals_total",
		"cpm_pic_integrator", "cpm_pic_freq_norm", "cpm_pic_target_frac", "cpm_pic_est_power_frac",
	} {
		if len(byName[want].Samples) == 0 {
			t.Errorf("/metrics lacks family %s", want)
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

// TestHealthz covers both health states; the draining transition is in
// drain_test.go.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := wantStatus(t, resp, 200); !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz body %q", body)
	}
}

// TestRunFailureIs500: a run that violates the invariant suite — here a
// budget four orders of magnitude below idle power, which no controller can
// hold past the suite's settle window — must surface as a 500 with the
// violation in the error document, and must not be cached.
func TestRunFailureIs500(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	doc := runDoc(Request{Scenario: "cpm-default", Seed: goldenSeed, BudgetFrac: 0.0001})
	body := wantStatus(t, postJSON(t, ts, doc), 500)
	var ed struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &ed); err != nil || ed.Error == "" {
		t.Fatalf("500 body is not the JSON error document: %s", body)
	}
	// A failed run must not be served from cache afterwards: retrying is a
	// fresh miss, not a replay of the failure.
	resp := postJSON(t, ts, doc)
	readBody(t, resp)
	if resp.Header.Get(HeaderCache) == outcomeHit {
		t.Errorf("failed run was cached and served as a hit")
	}
	if st := srv.Stats(); st.Misses != 2 {
		t.Errorf("expected both attempts to be misses, stats: %+v", st)
	}
}
