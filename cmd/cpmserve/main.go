// Command cpmserve is the simulation-as-a-service daemon: an HTTP/JSON
// front end over the deterministic scenario stack (internal/serve).
//
// Usage:
//
//	cpmserve                  # serve on :8080
//	cpmserve -addr :9090      # serve elsewhere
//	cpmserve -smoke 100       # no listener: self-drive 100 requests,
//	                          # print the /metrics scrape to stdout
//
// Endpoints:
//
//	POST /v1/run       run (or fetch from cache) a canonical scenario;
//	                   ?stream=1 selects the NDJSON per-epoch stream
//	GET  /v1/scenarios list canonical scenario names
//	GET  /v1/stats     admission counters
//	GET  /healthz      200 ok / 503 draining
//	GET  /metrics      Prometheus text exposition
//
// Flags:
//
//	-addr A       listen address (default :8080)
//	-workers N    concurrent simulation workers (default 4)
//	-queue N      queued runs beyond the workers before 429 (default 64)
//	-cache N      LRU result-cache entries (default 256, 0 disables)
//	-smoke N      run an N-request self-test instead of listening
//	-metrics F    also export the registry to F on exit ("-" = stdout)
//	-pprof ADDR   serve net/http/pprof on ADDR
//	-trace F      write a runtime/trace capture to F
//
// On SIGINT/SIGTERM the daemon drains: in-flight and queued runs finish,
// new submissions get 503 + Retry-After, and the process exits once the
// last accepted run has been answered.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cpm-sim/cpm/internal/diag"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/serve"
)

// cliConfig is the parsed, validated command line.
type cliConfig struct {
	addr  string
	opts  serve.Options
	smoke int
	diag  *diag.Flags
}

// parseCLI parses and validates argv (without the program name). It is the
// testable core of main: every reject path returns an error instead of
// exiting.
func parseCLI(argv []string, stderr io.Writer) (cliConfig, error) {
	fs := flag.NewFlagSet("cpmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 4, "concurrent simulation workers")
	queue := fs.Int("queue", 64, "queued runs beyond the workers before 429")
	cache := fs.Int("cache", 256, "LRU result-cache entries (0 disables)")
	smoke := fs.Int("smoke", 0, "run an N-request self-test instead of listening")
	dflags := diag.AddFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cpmserve [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return cliConfig{}, err
	}
	if len(fs.Args()) != 0 {
		return cliConfig{}, fmt.Errorf("cpmserve: unexpected arguments %v", fs.Args())
	}
	if *workers <= 0 {
		return cliConfig{}, fmt.Errorf("cpmserve: -workers must be > 0, got %d", *workers)
	}
	if *queue < 0 {
		return cliConfig{}, fmt.Errorf("cpmserve: -queue must be >= 0, got %d", *queue)
	}
	if *cache < 0 {
		return cliConfig{}, fmt.Errorf("cpmserve: -cache must be >= 0, got %d", *cache)
	}
	if *smoke < 0 {
		return cliConfig{}, fmt.Errorf("cpmserve: -smoke must be >= 0, got %d", *smoke)
	}
	cacheEntries := *cache
	if cacheEntries == 0 {
		cacheEntries = -1 // flag 0 = disabled; Options 0 = default
	}
	return cliConfig{
		addr: *addr,
		opts: serve.Options{
			Workers:      *workers,
			QueueDepth:   *queue,
			CacheEntries: cacheEntries,
		},
		smoke: *smoke,
		diag:  dflags,
	}, nil
}

func main() {
	c, err := parseCLI(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopTrace, err := c.diag.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopTrace()

	reg := metrics.NewRegistry()
	c.opts.Registry = reg
	srv := serve.NewServer(c.opts)

	if c.smoke > 0 {
		err = runSmoke(srv, c.smoke, os.Stdout, os.Stderr)
	} else {
		err = listenAndDrain(srv, c.addr, os.Stderr)
	}
	srv.Close()
	if err != nil {
		stopTrace()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.diag.WriteMetrics(reg, os.Stdout); err != nil {
		stopTrace()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// listenAndDrain serves until SIGINT/SIGTERM, then drains gracefully:
// admission stops (503), accepted runs finish and are answered, then the
// HTTP server shuts down.
func listenAndDrain(srv *serve.Server, addr string, logw io.Writer) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(logw, "cpmserve listening on %s\n", addr)
		errc <- hs.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return fmt.Errorf("cpmserve: %w", err)
	case sig := <-sigc:
		fmt.Fprintf(logw, "cpmserve: %v, draining\n", sig)
	}
	srv.Drain() // in-flight and queued runs finish; new submissions get 503
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("cpmserve: shutdown: %w", err)
	}
	fmt.Fprintln(logw, "cpmserve: drained")
	return nil
}
