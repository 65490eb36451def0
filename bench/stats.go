package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least a q share of the
// samples at or below it. It is an order statistic of the recorded values,
// never an interpolation and never a histogram bucket bound.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quietShare is the share of a run's windows that steady keeps.
const quietShare = 0.3

// steady is the value a run reports for a load metric: the mean of the best
// three tenths of its per-window values (the highest rates, the lowest
// latencies). What disturbs a window on a shared machine, a neighbour taking
// memory bandwidth or the processor itself, only ever makes it slower, so
// the best windows say what the program does and the rest what the machine
// did meanwhile; over ten seeds this spread a fifth to a quarter less than
// the median of the windows (README.md). A slowdown of the program's own
// shows unless it leaves three windows in ten untouched.
func steady(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	keep := int(math.Ceil(quietShare * float64(len(s))))
	if higherIsBetter {
		s = s[len(s)-keep:]
	} else {
		s = s[:keep]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// summary is the per-window (or per-pass) values behind one value of the
// ledger: their median and extremes, and the number of raw samples.
type summary struct {
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
	// Values are the per-window (or per-pass) values in time order.
	Values []float64 `json:"values"`
}

func summarize(vals []float64, samples int) summary {
	s := summary{Median: median(vals), Samples: samples, Values: vals}
	for i, v := range vals {
		if i == 0 || v < s.Min {
			s.Min = v
		}
		if i == 0 || v > s.Max {
			s.Max = v
		}
	}
	return s
}

// spread is the interquartile range of vals as a share of their median, the
// steadiness measure of the builder's contract (quartiles by the exclusive
// method, as Python's statistics.quantiles(values, n=4)).
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}
