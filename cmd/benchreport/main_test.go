package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Entry
		ok   bool
	}{
		{"benchmem", "BenchmarkCacheAccess-2   \t48915421\t        24.50 ns/op\t       8 B/op\t       1 allocs/op",
			Entry{NsPerOp: 24.5, BytesPerOp: 8, AllocsPerOp: 1}, true},
		{"custom metrics before benchmem",
			"BenchmarkFleetFarmManaged64-2   \t     300\t   1533155 ns/op\t     41744 chip-steps/sec\t     23956 ns/chip-step\t    1011 B/op\t      16 allocs/op",
			Entry{NsPerOp: 1533155, BytesPerOp: 1011, AllocsPerOp: 16}, true},
		{"without benchmem", "BenchmarkIntervalKernel   \t    1000\t   1234.5 ns/op",
			Entry{NsPerOp: 1234.5}, true},
		{"package summary", "ok  \tgithub.com/cpm-sim/cpm\t1.577s", Entry{}, false},
		{"header", "goos: linux", Entry{}, false},
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
