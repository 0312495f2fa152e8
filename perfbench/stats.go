package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: below that, the tail is a guess.
const minBeyond = 10

// samples is one named timing series of the timed phase.
type samples struct {
	name string
	vals []float64
}

func (s *samples) add(v float64) { s.vals = append(s.vals, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

// percentile returns the nearest-rank q-quantile, or an error when fewer
// than minBeyond samples lie beyond it.
func (s *samples) percentile(q float64) (float64, error) {
	n := len(s.vals)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - idx - 1; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%.0f needs %d samples beyond it, have %d of %d",
			s.name, q*100, minBeyond, max(n-idx-1, 0), n)
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	return sorted[idx], nil
}

// median returns the middle value (0 for an empty series).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianRate is the median over rounds of chip-intervals per second, each
// round simulating work chip-intervals in one of walls (seconds).
func medianRate(work int, walls []float64) float64 {
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(work) / w
	}
	return median(rates)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics plus the sample count behind each,
// which the human-readable ledger prints (the JSON line carries values
// only).
type metricSet struct {
	vals  map[string]metric
	count map[string]int
	order []string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, count: map[string]int{}}
}

func (m *metricSet) set(name, unit string, v float64, n int) {
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.count[name] = n
}

// setPct records the q-percentile of s in unit ms, or fails.
func (m *metricSet) setPct(name string, s *samples, q float64) error {
	s.name = name
	v, err := s.percentile(q)
	if err != nil {
		return err
	}
	m.set(name, "ms", v, len(s.vals))
	return nil
}

// print writes the ledger table: name, value, unit and sample count.
func (m *metricSet) print(w io.Writer, title string) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range m.order {
		v := m.vals[name]
		fmt.Fprintf(w, "#   %-36s %16.6g %-8s n=%d\n", name, v.Value, v.Unit, m.count[name])
	}
}
