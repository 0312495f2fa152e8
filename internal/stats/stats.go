// Package stats provides the small statistical toolkit used throughout the
// CPM simulator: summary statistics, linear regression with goodness-of-fit,
// and deterministic pseudo-random streams.
//
// Everything in this package is allocation-conscious and deterministic: the
// random number generator is a splitmix64 stream keyed by an explicit seed so
// that simulations are reproducible bit-for-bit regardless of execution order
// (pooled and farmed runs depend on this).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned by estimators that need more samples than
// they were given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs (division by n, not n-1).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 1 {
		return ys[0], nil
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return ys[lo], nil
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac, nil
}

// Summary holds the common descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs in a single pass.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	v := sumSq/n - s.Mean*s.Mean
	if v < 0 {
		v = 0 // guard against catastrophic cancellation
	}
	s.StdDev = math.Sqrt(v)
	return s
}

// LinFit is the result of a simple least-squares linear regression
// y = Slope*x + Intercept.
type LinFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit in [0, 1]
	// (1 when the fit is exact; 0 when it explains nothing).
	R2 float64
}

// Predict evaluates the fitted line at x.
func (f LinFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// LinReg fits y = a*x + b by ordinary least squares and reports R².
// It requires at least two points and non-degenerate x values.
func LinReg(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return LinFit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinFit{}, errors.New("stats: degenerate x values")
	}
	fit := LinFit{}
	fit.Slope = (n*sxy - sx*sy) / den
	fit.Intercept = (sy - fit.Slope*sx) / n

	// R² = 1 - SS_res/SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		e := ys[i] - fit.Predict(xs[i])
		ssRes += e * e
		d := ys[i] - meanY
		ssTot += d * d
	}
	switch {
	case ssTot == 0 && ssRes == 0:
		fit.R2 = 1
	case ssTot == 0:
		fit.R2 = 0
	default:
		fit.R2 = 1 - ssRes/ssTot
		if fit.R2 < 0 {
			fit.R2 = 0
		}
	}
	return fit, nil
}

// MAPE returns the mean absolute percentage error between predictions and
// actuals, ignoring points where the actual value is zero.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, errors.New("stats: mismatched sample lengths")
	}
	s, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs((predicted[i] - actual[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrInsufficientData
	}
	return s / float64(n) * 100, nil
}
