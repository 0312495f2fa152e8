package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/serve"
	"github.com/cpm-sim/cpm/internal/stats"
)

// coldBudgets is how many budget fractions each pass of the serve cold
// phase draws per derived seed and Mix-1 scenario.
const coldBudgets = 6

// serveCacheEntries is the server's result-cache capacity. The cold phase
// stops before its keys and the set-up keys could exceed it (at about 16
// misses a second that is far beyond any --seconds), so every warm request
// hits.
const serveCacheEntries = 4096

// minHits keeps the warm phase going until serve.hit_p99_ms has minBeyond
// samples beyond it.
const minHits = 100 * minBeyond

// coldStream is the cold phase's request sequence. The first pass is the
// canonical scenarios at the golden seed, then the shared-key Mix-1
// scenarios at the derived seeds, coldBudgets seeded budget fractions
// each; every later pass draws fresh budgets for the derived requests
// only. The cache key keeps nine significant digits of a budget, so two
// draws practically never share a key: every request misses. No pass
// after the first needs a calibration the set-up did not make.
type coldStream struct {
	r     *stats.Rand
	seeds []uint64
	reqs  []serve.Request
	first int // length of the first pass
}

func newColdStream(seed uint64) *coldStream {
	cs := &coldStream{r: stats.NewRand(stats.DeriveSeed(seed, 0xc01d)), seeds: derivedSeeds(seed, derivedSeedCount)}
	for _, name := range check.ScenarioNames() {
		cs.reqs = append(cs.reqs, serve.Request{Scenario: name, Seed: goldenSeed})
	}
	cs.pass()
	cs.first = len(cs.reqs)
	return cs
}

// pass appends one pass of derived-seed requests.
func (cs *coldStream) pass() {
	for _, s := range cs.seeds {
		for _, sc := range mix1Shared() {
			for _, b := range budgetFracs(cs.r, coldBudgets) {
				cs.reqs = append(cs.reqs, serve.Request{Scenario: sc.Name, Seed: s, BudgetFrac: b})
			}
		}
	}
}

// at returns the i-th cold request, drawing further passes as needed.
func (cs *coldStream) at(i int) serve.Request {
	for i >= len(cs.reqs) {
		cs.pass()
	}
	return cs.reqs[i]
}

// requestPoints resolves requests to the points they run.
func requestPoints(reqs []serve.Request) ([]point, error) {
	var pts []point
	for _, req := range reqs {
		_, sc, err := req.Resolve()
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{sc: sc, seed: req.Seed})
	}
	return pts, nil
}

// setupRequests sends one short run per calibration key the cold phase
// needs; its one-epoch windows keep it out of the cold phase's keys.
func setupRequests(cold []serve.Request) ([]serve.Request, error) {
	pts, err := requestPoints(cold)
	if err != nil {
		return nil, err
	}
	var out []serve.Request
	for _, p := range calibrationKeys(pts) {
		out = append(out, serve.Request{Scenario: p.sc.Name, Seed: p.seed, WarmEpochs: 1, MeasureEpochs: 1})
	}
	return out, nil
}

// reply is one completed request as the client saw it.
type reply struct {
	req     serve.Request
	key     string
	status  int
	outcome string
	body    []byte
	latency time.Duration
	id      int
	idx     int // the request's index in its phase
	url     int // index of the listener that served it
}

// client is the closed-loop load generator: workers keep-alive connections,
// each sending its next request only when the previous reply is read.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	seq  int
	mu   sync.Mutex
	urls []string
}

func newClient(urls []string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, urls: urls}
}

// do sends one request to urls[which].
func (c *client) do(req serve.Request, which int) (reply, error) {
	c.mu.Lock()
	c.seq++
	id := c.seq
	c.mu.Unlock()
	doc, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	resolved, _, err := req.Resolve()
	if err != nil {
		return reply{}, err
	}
	hr, err := http.NewRequest(http.MethodPost, c.urls[which], bytes.NewReader(doc))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(benchIDHeader, strconv.Itoa(id))
	t := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := reply{req: req, key: resolved.CacheKey(), status: resp.StatusCode,
		outcome: resp.Header.Get(serve.HeaderCache), body: body, latency: time.Since(t), id: id, url: which}
	return out, err
}

// closedLoop runs workers concurrent clients. Each takes the next request
// index when its previous reply is in, until next returns false; which
// picks the listener for an index and got receives every reply. next and
// got run under one lock.
func (c *client) closedLoop(next func(i int) (serve.Request, bool), which func(i int) int, got func(reply, error)) {
	var mu sync.Mutex
	i := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := i
				req, ok := next(k)
				i++
				mu.Unlock()
				if !ok {
					return
				}
				rep, err := c.do(req, which(k))
				mu.Lock()
				got(rep, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// benchIDHeader tags a request so the tracing wrapper's server-side times
// can be joined with the client's.
const benchIDHeader = "X-Perfbench-Id"

// serveTrace is the tracing wrapper around Server.Handler plus the
// Options.RunHook timestamps, joined by request id and cache key.
type serveTrace struct {
	next http.Handler
	mu   sync.Mutex
	in   map[int]time.Time // handler entry, by request id
	out  map[int]time.Time // handler exit
	run  map[string]time.Time
}

func (t *serveTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	enter := time.Now()
	t.next.ServeHTTP(w, r)
	exit := time.Now()
	id, _ := strconv.Atoi(r.Header.Get(benchIDHeader))
	t.mu.Lock()
	t.in[id], t.out[id] = enter, exit
	t.mu.Unlock()
}

func (t *serveTrace) runHook(req serve.Request) {
	now := time.Now()
	t.mu.Lock()
	t.run[req.CacheKey()] = now
	t.mu.Unlock()
}

// servedReport is the subset of serve.Report the benchmark checks.
type servedReport struct {
	Scenario     string   `json:"scenario"`
	BudgetW      float64  `json:"budget_w"`
	MeanBIPS     float64  `json:"mean_bips"`
	EpochDigests []string `json:"epoch_digests"`
	FinalDigest  string   `json:"final_digest"`
	EpochSeries  []struct {
		MeanPowerW float64 `json:"mean_power_w"`
	} `json:"epoch_series"`
}

// parseReport decodes a JSON body, or the trailer line of an NDJSON body.
func parseReport(body []byte, stream bool) (servedReport, error) {
	var rep servedReport
	if stream {
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		body = lines[len(lines)-1]
	}
	err := json.Unmarshal(body, &rep)
	return rep, err
}

// serveGate checks replies: status 200, the expected cache outcome, a body
// identical to the first one seen for its key and rendering, and pinned
// digests for golden-seed canonical runs.
type serveGate struct {
	g     *gate
	first map[string][]byte
}

func (sg *serveGate) check(rep reply, wantOutcome string, err error) error {
	if err == nil {
		err = func() error {
			if rep.status != http.StatusOK {
				return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
			}
			if wantOutcome != "" && rep.outcome != wantOutcome {
				return fmt.Errorf("cache outcome %q, want %q", rep.outcome, wantOutcome)
			}
			k := rep.key + "/" + strconv.FormatBool(rep.req.Stream)
			if ref, ok := sg.first[k]; ok {
				if !bytes.Equal(ref, rep.body) {
					return errors.New("body differs from the first body served for its key")
				}
				return nil
			}
			sg.first[k] = rep.body
			if rep.req.Seed != goldenSeed || rep.req.MeasureEpochs != 0 {
				return nil
			}
			sr, err := parseReport(rep.body, rep.req.Stream)
			if err != nil {
				return err
			}
			return check.Trace{
				Scenario: sr.Scenario, Epochs: len(sr.EpochDigests),
				EpochDigests: sr.EpochDigests, FinalDigest: sr.FinalDigest,
			}.Diff(sg.g.pinned[rep.req.Scenario])
		}()
	}
	if err != nil {
		err = fmt.Errorf("serve %s seed %d budget %v: %w", rep.req.Scenario, rep.req.Seed, rep.req.BudgetFrac, err)
		sg.g.fail(err)
	}
	return err
}

// runServe drives the serve workload: a server behind a 127.0.0.1
// listener, a set-up request per calibration key, a cold phase of distinct
// requests (every one a miss) lasting --seconds, and a warm phase replaying
// every cold key in seeded order in both renderings (every one a hit). A
// traced invocation also serves a second listener through the tracing
// wrapper: the cold phase goes through it, the warm phase alternates
// between the two.
func runServe(r *run) error {
	r.zeroLayers()
	cold := newColdStream(r.opts.seed)
	setupReqs, err := setupRequests(cold.reqs)
	if err != nil {
		return err
	}
	opts := serve.Options{Workers: workers, QueueDepth: workers, CacheEntries: serveCacheEntries}
	var tr *serveTrace
	if r.opts.trace {
		tr = &serveTrace{in: map[int]time.Time{}, out: map[int]time.Time{}, run: map[string]time.Time{}}
		opts.RunHook = tr.runHook
	}
	srv := serve.NewServer(opts)
	defer srv.Close()
	handlers := []http.Handler{srv.Handler()}
	if tr != nil {
		tr.next = srv.Handler()
		handlers = append(handlers, tr)
	}
	var urls []string
	for _, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
		}()
		defer func() {
			_ = hs.Shutdown(context.Background())
			<-done
		}()
		urls = append(urls, "http://"+ln.Addr().String()+"/v1/run")
	}
	c := newClient(urls)
	defer c.tr.CloseIdleConnections()
	sg := &serveGate{g: r.gate, first: map[string][]byte{}}
	tracedURL := len(urls) - 1

	// Set-up: calibrate every key through the server.
	t := time.Now()
	c.closedLoop(func(i int) (serve.Request, bool) {
		if i >= len(setupReqs) {
			return serve.Request{}, false
		}
		return setupReqs[i], true
	}, func(int) int { return 0 }, func(rep reply, err error) {
		r.attempted++
		sg.check(rep, "", err)
	})
	r.layer.set("core.calibrate_s", "s", time.Since(t).Seconds(), len(setupReqs))
	r.layer.set("core.calibrations", "count", float64(len(setupReqs)), len(setupReqs))
	if r.setupComplete() {
		return nil
	}

	// Cold phase: at least the first pass, then until --seconds. The
	// modelled metrics come from the first pass alone, so they do not
	// depend on how many requests the host completes.
	var coldLat samples
	var model simTotals
	var queue, runSpan samples
	coldIntervals, sent := 0, 0
	t = time.Now()
	c.closedLoop(func(i int) (serve.Request, bool) {
		done := i >= cold.first && r.elapsed() >= r.opts.seconds
		if done || i >= serveCacheEntries-len(setupReqs) {
			return serve.Request{}, false
		}
		sent = i + 1
		return cold.at(i), true
	}, func(int) int { return tracedURL }, func(rep reply, err error) {
		r.attempted++
		if sg.check(rep, "miss", err) != nil {
			return
		}
		coldLat.addDur(rep.latency, time.Millisecond)
		sr, err := parseReport(rep.body, false)
		if err != nil {
			sg.g.fail(err)
			return
		}
		resolved, _, err := rep.req.Resolve()
		if err != nil {
			sg.g.fail(err)
			return
		}
		coldIntervals += (resolved.WarmEpochs + resolved.MeasureEpochs) * 20
		if rep.idx < cold.first {
			trackSum := 0.0
			for _, e := range sr.EpochSeries {
				trackSum += math.Abs(e.MeanPowerW-sr.BudgetW) / sr.BudgetW
			}
			model.add(rep.req.Scenario != "maxbips", sr.MeanBIPS, ratio(trackSum, float64(len(sr.EpochSeries))))
		}
		if tr != nil {
			tr.mu.Lock()
			queue.addDur(tr.run[rep.key].Sub(tr.in[rep.id]), time.Millisecond)
			runSpan.addDur(tr.out[rep.id].Sub(tr.run[rep.key]), time.Millisecond)
			tr.mu.Unlock()
		}
	})
	coldWall := time.Since(t)

	// Warm phase: every cold key in both renderings, in seeded order,
	// repeated on a traced run until both listeners have enough hits.
	order := make([]int, 2*sent)
	stats.NewRand(stats.DeriveSeed(r.opts.seed, 0x4a11)).Perm(order)
	var hitLat, tracedHit, handler, netSpan samples
	hits := 0
	t = time.Now()
	c.closedLoop(func(i int) (serve.Request, bool) {
		enough := tr == nil || (len(hitLat.vals) >= minHits && len(tracedHit.vals) >= minHits)
		if i >= len(order) && enough {
			return serve.Request{}, false
		}
		k := order[i%len(order)]
		req := cold.reqs[k/2]
		req.Stream = k%2 == 1
		return req, true
	}, func(i int) int {
		if tr != nil && i%2 == 1 {
			return tracedURL
		}
		return 0
	}, func(rep reply, err error) {
		r.attempted++
		if sg.check(rep, "hit", err) != nil {
			return
		}
		hits++
		if tr == nil {
			return // hit metrics are per-layer: only the traced run keeps samples
		}
		if rep.url != tracedURL {
			hitLat.addDur(rep.latency, time.Millisecond)
			return
		}
		tr.mu.Lock()
		in, out := tr.in[rep.id], tr.out[rep.id]
		tr.mu.Unlock()
		tracedHit.addDur(rep.latency, time.Millisecond)
		handler.addDur(out.Sub(in), time.Microsecond)
		netSpan.addDur(rep.latency-out.Sub(in), time.Microsecond)
	})
	warmWall := time.Since(t)

	if tr == nil {
		r.e2e.set("chip_intervals_per_s", "1/s", float64(coldIntervals)/coldWall.Seconds(), len(coldLat.vals))
		model.metrics(r.e2e)
		if err := r.e2e.setPct("cold_p50_ms", &coldLat, 0.50); err != nil {
			return err
		}
		return r.e2e.setPct("cold_p90_ms", &coldLat, 0.90)
	}
	st := srv.Stats()
	r.layer.set("serve.handler_us", "us", mean(handler.vals), len(handler.vals))
	r.layer.set("serve.net_us", "us", mean(netSpan.vals), len(netSpan.vals))
	r.layer.set("serve.queue_ms", "ms", mean(queue.vals), len(queue.vals))
	r.layer.set("serve.run_ms", "ms", mean(runSpan.vals), len(runSpan.vals))
	r.layer.set("serve.hit_ratio", "ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses+st.Coalesced)), int(st.Hits+st.Misses+st.Coalesced))
	r.layer.set("serve.coalesced", "count", float64(st.Coalesced), 1)
	r.layer.set("serve.rejected", "count", float64(st.RejectedQueueFull+st.RejectedDraining), 1)
	hitLat.name = "serve.hit_ms"
	p50, err := hitLat.percentile(0.50)
	if err != nil {
		return err
	}
	p99, err := hitLat.percentile(0.99)
	if err != nil {
		return err
	}
	r.layer.set("serve.hit_p50_ms", "ms", p50, len(hitLat.vals))
	r.layer.set("serve.hit_p99_ms", "ms", p99, len(hitLat.vals))
	r.layer.set("serve.hit_req_per_s", "1/s", float64(hits)/warmWall.Seconds(), hits)
	r.layer.set("serve.cold_req_per_s", "1/s", float64(len(coldLat.vals))/coldWall.Seconds(), len(coldLat.vals))
	r.overhead(tracedHit.vals, hitLat.vals)
	r.goLayer(float64(coldIntervals))
	return nil
}
