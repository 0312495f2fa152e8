package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/serve"
)

// runSmoke self-drives the full HTTP stack: a loopback listener, n
// concurrent /v1/run requests cycling scenarios, seeds and both response
// modes, then the /metrics scrape copied to stdout (CI archives it as the
// smoke artifact). Any non-200, or two responses for one cache key that
// disagree byte-for-byte, fails the smoke.
func runSmoke(srv *serve.Server, n int, stdout, stderr io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cpmserve -smoke: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Minute}

	names := check.ScenarioNames()
	var (
		mu     sync.Mutex
		bodies = map[string][]byte{} // cache key -> first body seen (per mode)
		errs   []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The seed cycle (5) is coprime with the scenario cycle (11),
			// so a 100-request smoke spreads over 55 distinct runs — enough
			// churn to exercise misses, hits and coalescing.
			req := serve.Request{
				Scenario: names[i%len(names)],
				Seed:     uint64(1 + i%5),
				Stream:   i%4 == 3,
			}
			body, key, err := postRun(client, base, req)
			if err != nil {
				fail(fmt.Errorf("request %d (%s seed %d): %w", i, req.Scenario, req.Seed, err))
				return
			}
			mode := key
			if req.Stream {
				mode += "/ndjson"
			}
			mu.Lock()
			if prev, ok := bodies[mode]; ok && !bytes.Equal(prev, body) {
				errs = append(errs, fmt.Errorf("request %d: response for key %s diverged from an earlier response", i, key))
			} else if !ok {
				bodies[mode] = body
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Fprintf(stderr, "cpmserve -smoke: %d requests: %d runs, %d hits, %d coalesced, %d failures\n",
		n, st.Runs, st.Hits, st.Coalesced, len(errs))
	for _, e := range errs {
		fmt.Fprintln(stderr, " ", e)
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("cpmserve -smoke: scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(stdout, resp.Body); err != nil {
		return fmt.Errorf("cpmserve -smoke: copying /metrics: %w", err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("cpmserve -smoke: %d of %d requests failed", len(errs), n)
	}
	return nil
}

// postRun issues one /v1/run request and returns the body and cache key.
func postRun(client *http.Client, base string, req serve.Request) ([]byte, string, error) {
	doc := fmt.Sprintf(`{"scenario":%q,"seed":%d,"stream":%v}`, req.Scenario, req.Seed, req.Stream)
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader([]byte(doc)))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get(serve.HeaderCacheKey), nil
}
