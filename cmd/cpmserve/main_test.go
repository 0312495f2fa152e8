package main

import (
	"io"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/serve"
)

func TestParseCLIDefaults(t *testing.T) {
	c, err := parseCLI(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8080" {
		t.Errorf("addr = %q", c.addr)
	}
	if c.opts.Workers != 4 || c.opts.QueueDepth != 64 || c.opts.CacheEntries != 256 {
		t.Errorf("default options = %+v", c.opts)
	}
	if c.smoke != 0 {
		t.Errorf("smoke = %d", c.smoke)
	}
}

func TestParseCLIRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		frag string
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative queue", []string{"-queue", "-1"}, "-queue"},
		{"negative cache", []string{"-cache", "-1"}, "-cache"},
		{"negative smoke", []string{"-smoke", "-1"}, "-smoke"},
		{"stray argument", []string{"serve"}, "unexpected arguments"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"undefined batch flag", []string{"-batch", "4"}, "flag provided but not defined: -batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCLI(tc.argv, io.Discard)
			if err == nil {
				t.Fatalf("argv %v accepted", tc.argv)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestParseCLIOverrides(t *testing.T) {
	c, err := parseCLI([]string{"-addr", ":9090", "-workers", "2", "-queue", "0",
		"-cache", "8", "-smoke", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":9090" || c.opts.Workers != 2 || c.opts.QueueDepth != 0 ||
		c.opts.CacheEntries != 8 || c.smoke != 5 {
		t.Errorf("parsed config = %+v smoke=%d", c.opts, c.smoke)
	}
}

// TestSmokeRuns drives the -smoke self-test end to end on a tiny request
// count: real listener, real simulations, and the /metrics scrape must be
// valid Prometheus exposition.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	reg := metrics.NewRegistry()
	srv := serve.NewServer(serve.Options{Workers: 2, QueueDepth: 8, Registry: reg})
	defer srv.Close()
	var out, errlog strings.Builder
	if err := runSmoke(srv, 4, &out, &errlog); err != nil {
		t.Fatalf("smoke failed: %v\nlog: %s", err, errlog.String())
	}
	if _, err := metrics.ParsePrometheus(strings.NewReader(out.String())); err != nil {
		t.Errorf("smoke /metrics scrape is not valid exposition: %v", err)
	}
	if !strings.Contains(out.String(), "cpmserve_requests_total") {
		t.Errorf("smoke scrape lacks server-plane metrics")
	}
	if st := srv.Stats(); st.Runs == 0 {
		t.Errorf("smoke ran no simulations: %+v", st)
	}
}
