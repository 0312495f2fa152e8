package main

import (
	"errors"
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
