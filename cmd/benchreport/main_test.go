package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Run
		ok   bool
	}{
		{"benchmem", "BenchmarkCacheAccess-2   \t48915421\t        24.50 ns/op\t       8 B/op\t       1 allocs/op",
			Run{NsPerOp: 24.5, BytesPerOp: 8, AllocsPerOp: 1}, true},
		{"custom metrics before benchmem",
			"BenchmarkFleetFarmManaged64-2   \t     300\t   1533155 ns/op\t     41744 chip-steps/sec\t     23956 ns/chip-step\t    1011 B/op\t      16 allocs/op",
			Run{NsPerOp: 1533155, BytesPerOp: 1011, AllocsPerOp: 16}, true},
		{"without benchmem", "BenchmarkIntervalKernel   \t    1000\t   1234.5 ns/op",
			Run{NsPerOp: 1234.5}, true},
		{"package summary", "ok  \tgithub.com/cpm-sim/cpm\t1.577s", Run{}, false},
		{"header", "goos: linux", Run{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseBenchLine(tc.line)
			if ok != tc.ok || got != tc.want {
				t.Errorf("parseBenchLine = %+v, %v; want %+v, %v", got, ok, tc.want, tc.ok)
			}
		})
	}
}

// fakeSide returns a run function that logs its calls under name and
// replays ns, one value per call.
func fakeSide(name string, log *[]string, ns ...float64) func() (Run, error) {
	i := 0
	return func() (Run, error) {
		*log = append(*log, name)
		r := Run{NsPerOp: ns[i], AllocsPerOp: int64(i), BytesPerOp: 100}
		i++
		return r, nil
	}
}

// TestAlternateOrder: pairs alternate which side runs first, and without a
// revision side only the working tree runs.
func TestAlternateOrder(t *testing.T) {
	var log []string
	cur, base, err := alternate(4, fakeSide("cur", &log, 1, 2, 3, 4), fakeSide("base", &log, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cur", "base", "base", "cur", "cur", "base", "base", "cur"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("run order %v, want %v", log, want)
	}
	if len(cur) != 4 || len(base) != 4 || cur[3].NsPerOp != 4 || base[0].NsPerOp != 5 {
		t.Errorf("runs %v / %v", cur, base)
	}

	log = nil
	cur, base, err = alternate(3, fakeSide("cur", &log, 1, 2, 3), nil)
	if err != nil || len(cur) != 3 || base != nil || len(log) != 3 {
		t.Errorf("without a revision: runs %v / %v, log %v, err %v", cur, base, log, err)
	}

	boom := errors.New("boom")
	if _, _, err := alternate(2, fakeSide("cur", &log, 1, 2), func() (Run, error) { return Run{}, boom }); !errors.Is(err, boom) {
		t.Errorf("failing side: err %v", err)
	}
}

// TestCompare: each side keeps its minimum (with that run's counters) and
// median; wins count the pairs the working tree ran strictly faster.
func TestCompare(t *testing.T) {
	runs := func(ns ...float64) []Run {
		var out []Run
		for i, v := range ns {
			out = append(out, Run{NsPerOp: v, AllocsPerOp: int64(i)})
		}
		return out
	}
	e := compare(runs(90, 80, 100, 85), runs(100, 80, 120, 95))
	if e.NsPerOp != 80 || e.AllocsPerOp != 1 || e.MedianNsPerOp != 87.5 {
		t.Errorf("working tree side %+v, want min 80 (run 1) and median 87.5", e.Side)
	}
	if e.Against == nil || e.Against.NsPerOp != 80 || e.Against.MedianNsPerOp != 97.5 {
		t.Fatalf("revision side %+v, want min 80 and median 97.5", e.Against)
	}
	if e.Wins != 3 || e.Pairs != 4 {
		t.Errorf("won %d of %d pairs, want 3 of 4 (the tie counts for neither)", e.Wins, e.Pairs)
	}
	if want := 97.5 / 87.5; e.Speedup != want {
		t.Errorf("speedup %v, want %v", e.Speedup, want)
	}

	solo := compare(runs(3, 1, 2), nil)
	if solo.Against != nil || solo.Pairs != 0 || solo.NsPerOp != 1 || solo.MedianNsPerOp != 2 {
		t.Errorf("without a revision: %+v", solo)
	}
}

func TestParsePerfSpecs(t *testing.T) {
	got, err := parsePerfSpecs("resilient:1:10,serve:7:3,resilient:11:2:trace")
	want := []perfSpec{{"resilient", 1, 10, false}, {"serve", 7, 3, false}, {"resilient", 11, 2, true}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parsePerfSpecs = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{"resilient", "resilient:1", ":1:2", "fleet:x:2", "fleet:1:0", "fleet:1:2:traced", "fleet:1:2,"} {
		if _, err := parsePerfSpecs(bad); err == nil {
			t.Errorf("parsePerfSpecs(%q) accepted", bad)
		}
	}
}

// TestParsePerfOutput reads the ledger's sample counts and the last line's
// values, as perfbench prints them.
func TestParsePerfOutput(t *testing.T) {
	out := []byte(`# serve end-to-end metrics
#   chip_intervals_per_s                         2140.5 1/s      n=512
#   peak_rss_mb                                    22.3 MB       n=1
{"correct":true,"attempted":1545,"failed":0,"metrics":{"chip_intervals_per_s":{"value":2140.5,"unit":"1/s"},"peak_rss_mb":{"value":22.3,"unit":"MB"}}}
`)
	r, err := parsePerfOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Values["chip_intervals_per_s"] != 2140.5 || r.Samples["chip_intervals_per_s"] != 512 || r.Values["peak_rss_mb"] != 22.3 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := parsePerfOutput([]byte("# only a ledger\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

// TestComparePerf: quartiles interpolate between runs, wins follow each
// metric's declared direction, and a failed or incorrect run marks its side.
func TestComparePerf(t *testing.T) {
	runs := func(correct bool, rate ...float64) []perfRun {
		var out []perfRun
		for _, v := range rate {
			out = append(out, perfRun{Correct: correct, Values: map[string]float64{"rate": v, "rss": 100 / v}})
		}
		return out
	}
	defs := map[string]metricDef{"rate": {Better: "higher", Bound: 0.25}, "rss": {Better: "lower", Bound: 0.2}}
	tree := runs(true, 12, 14, 11, 15, 13)
	rev := runs(true, 10, 10, 12, 9, 11)
	rev[2].Correct, rev[2].Failed = false, 2
	e := comparePerf(perfSpec{Workload: "resilient", Seed: 1, Pairs: 5}, tree, rev, defs)
	if !e.Correct || e.RevCorrect || e.RevFailed != 2 {
		t.Errorf("correct %v/%v, failed %d/%d", e.Correct, e.RevCorrect, e.Failed, e.RevFailed)
	}
	rate := e.Metrics["rate"]
	if rate.Tree.Median != 13 || rate.Tree.Q1 != 12 || rate.Tree.Q3 != 14 || rate.Rev.Median != 10 {
		t.Errorf("rate sides %+v / %+v", rate.Tree, *rate.Rev)
	}
	if rate.Wins != 4 || !rate.BeyondIQR || math.Abs(rate.Change-0.3) > 1e-12 || rate.Bound != 0.25 {
		t.Errorf("rate: won %d, beyond IQR %v, change %v, bound %v; want 4, true, 0.3, 0.25", rate.Wins, rate.BeyondIQR, rate.Change, rate.Bound)
	}
	if rss := e.Metrics["rss"]; rss.Wins != 4 {
		t.Errorf("rss (lower is better) won %d pairs, want 4", rss.Wins)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.25); got != 1.75 {
		t.Errorf("lower quartile of 1..4 = %v, want 1.75", got)
	}
}
