package serve

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/metrics"
)

// TestQueuedRunsMatchGoldens holds the single worker on a blocker run while
// every canonical scenario queues up behind it, one at a time, then
// releases it. The queue is FIFO — the workers run jobs in arrival order —
// and a run that waited in it is the same run: every response must
// reproduce its pinned golden digests exactly, and the queue must be empty
// again afterwards, in Stats and in /metrics.
func TestQueuedRunsMatchGoldens(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	blocker := Request{Scenario: "cpm-default", Seed: goldenSeed, MeasureEpochs: 5}
	// RunHook sees the *resolved* request (defaults filled), so the gate
	// and the arrival order are matched against resolved forms.
	resolve := func(r Request) Request {
		t.Helper()
		res, _, err := r.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resolvedBlocker := resolve(blocker)
	var (
		mu  sync.Mutex
		ran []Request
	)
	started := make(chan struct{}, 1)
	srv, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 16,
		RunHook: func(r Request) {
			mu.Lock()
			ran = append(ran, r)
			mu.Unlock()
			if r == resolvedBlocker {
				started <- struct{}{}
				<-gate
			}
		},
	})

	// Responses are read on the test goroutine once every request is in.
	names := check.ScenarioNames()
	resps := make([]*http.Response, 1+len(names))
	errs := make([]error, len(resps))
	var wg sync.WaitGroup
	post := func(i int, req Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runDoc(req)))
		}()
	}
	post(0, blocker)
	waitFor(t, "the blocker to start", func() bool { return len(started) > 0 })

	// With the worker held, queue every canonical scenario in order.
	want := []Request{resolvedBlocker}
	for i, name := range names {
		req := Request{Scenario: name, Seed: goldenSeed}
		want = append(want, resolve(req))
		post(1+i, req)
		waitFor(t, name+" to queue", func() bool { return srv.Stats().QueueDepth == i+1 })
	}
	release()
	wg.Wait()

	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("POST %d: %v", i, errs[i])
		}
		body := wantStatus(t, resp, 200)
		if i == 0 {
			continue
		}
		name := names[i-1]
		if err := traceOf(decodeReport(t, body)).Diff(loadRef(t, name)); err != nil {
			t.Errorf("queued %s diverged from the pinned golden: %v", name, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != len(want) {
		t.Fatalf("RunHook saw %d runs, want %d", len(ran), len(want))
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Errorf("run %d was %s, want %s: jobs must run in arrival order", i, ran[i].Scenario, want[i].Scenario)
		}
	}
	st := srv.Stats()
	if st.Runs != uint64(len(want)) || st.QueueDepth != 0 {
		t.Errorf("Runs = %d and QueueDepth = %d, want %d and 0", st.Runs, st.QueueDepth, len(want))
	}
	if got := gaugeValue(t, ts.URL, "cpmserve_queue_depth"); got != 0 {
		t.Errorf("cpmserve_queue_depth = %v after the queue emptied, want 0", got)
	}
}

// gaugeValue scrapes /metrics and returns the value of an unlabelled gauge.
func gaugeValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(bytes.NewReader(wantStatus(t, resp, 200)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == name && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	t.Fatalf("/metrics has no single-sample family %s", name)
	return 0
}

// panicPolicy is a GPM policy whose provisioning panics.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panic" }

func (panicPolicy) Provision(float64, []gpm.IslandObs) []float64 { panic("provision boom") }

// TestPanickingRunFailsItsJob: a run that panics — here its GPM policy, in
// Provision — fails its own job with an error naming the scenario and seed,
// is not cached, and leaves the server serving the next request.
func TestPanickingRunFailsItsJob(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	req, sc, err := shortRun("cpm-default", 3).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = func() (gpm.Policy, error) { return panicPolicy{}, nil }
	j, outcome, serr := srv.submit(req, sc)
	if serr != nil || outcome != outcomeMiss {
		t.Fatalf("submit = %q, %v; want a miss", outcome, serr)
	}
	<-j.done
	if j.err == nil {
		t.Fatal("a run whose policy panicked succeeded")
	}
	for _, frag := range []string{"cpm-default seed 3", "provision boom"} {
		if !strings.Contains(j.err.Error(), frag) {
			t.Errorf("error %q does not mention %q", j.err, frag)
		}
	}
	if st := srv.Stats(); st.CacheEntries != 0 {
		t.Errorf("the failed run was cached: %+v", st)
	}
	wantStatus(t, postJSON(t, ts, runDoc(shortRun("cpm-default", goldenSeed))), 200)
}
