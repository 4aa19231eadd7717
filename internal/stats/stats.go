// Package stats provides the "higher level statistical operations" of
// Section 5.6 of Shoshani's OLAP-vs-SDB survey — the functions that sit
// beyond a database's built-in count/sum/avg/min/max and traditionally
// forced a round-trip to an external statistical package: standard
// deviation, percentiles, trimmed means, and the time-series summaries
// (moving averages, period highs/lows) stock-market databases need
// (Section 3.2(ii)).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty data")

// ErrNaN is returned when the data (or a parameter) contains NaN. The
// order statistics here sort their input, and sort.Float64s places NaN
// unspecifiedly — a percentile of NaN-laced data would silently be
// garbage rather than loudly wrong.
var ErrNaN = errors.New("stats: data contains NaN")

// checkNaN rejects samples containing NaN.
func checkNaN(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) {
			return fmt.Errorf("%w (index %d)", ErrNaN, i)
		}
	}
	return nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance, computed with Welford's
// single-pass algorithm for numerical stability.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var mean, m2 float64
	for i, x := range xs {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	return m2 / float64(len(xs)), nil
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	// NaN fails every comparison, so `p < 0 || p > 100` alone lets a NaN
	// rank slip through.
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	if err := checkNaN(xs); err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[lo]*(1-frac) + s[lo+1]*frac, nil
}

// NearestRank returns the p-th percentile (0 <= p <= 100) of an
// ascending-sorted sample by the nearest-rank definition: the value at
// rank ⌈p/100 · n⌉, clamped to [1, n] — always a member of the sample,
// never an interpolation, which is what latency and cost reports want.
// An empty sample yields the zero value.
func NearestRank[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the 50th percentile.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// TrimmedMean returns the mean after discarding the lowest and highest
// fraction trim of the sorted data (0 <= trim < 0.5) — the paper's example
// of a statistic databases cannot express.
func TrimmedMean(xs []float64, trim float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(trim) || trim < 0 || trim >= 0.5 {
		return 0, fmt.Errorf("stats: trim %v out of [0,0.5)", trim)
	}
	if err := checkNaN(xs); err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := int(float64(len(s)) * trim)
	kept := s[cut : len(s)-cut]
	if len(kept) == 0 {
		return 0, ErrEmpty
	}
	return Mean(kept)
}

// MovingAverage returns the trailing window-mean series: out[i] is the
// mean of xs[max(0,i-window+1) .. i].
func MovingAverage(xs []float64, window int) ([]float64, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stats: window %d", window)
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := i + 1
		if n > window {
			n = window
		}
		out[i] = sum / float64(n)
	}
	return out, nil
}

// PeriodSummary is one period's aggregate of a time series: the open,
// close, high, low and mean of its observations — the weekly/monthly
// "averages, highs and lows" of a stock-market classification hierarchy
// over time.
type PeriodSummary struct {
	Period string
	N      int
	Open   float64
	Close  float64
	High   float64
	Low    float64
	Mean   float64
}

// Observation is one time-series point, tagged with the period (week,
// month…) it rolls up into.
type Observation struct {
	Period string
	Value  float64
}

// RollupPeriods aggregates observations (in time order) into per-period
// summaries, preserving first-seen period order.
func RollupPeriods(obs []Observation) []PeriodSummary {
	var order []string
	acc := map[string]*PeriodSummary{}
	for _, o := range obs {
		p, ok := acc[o.Period]
		if !ok {
			p = &PeriodSummary{Period: o.Period, Open: o.Value, High: math.Inf(-1), Low: math.Inf(1)}
			acc[o.Period] = p
			order = append(order, o.Period)
		}
		p.N++
		p.Close = o.Value
		if o.Value > p.High {
			p.High = o.Value
		}
		if o.Value < p.Low {
			p.Low = o.Value
		}
		p.Mean += (o.Value - p.Mean) / float64(p.N)
	}
	out := make([]PeriodSummary, 0, len(order))
	for _, name := range order {
		out = append(out, *acc[name])
	}
	return out
}
