package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks. NaN on an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return spreadOf(vs).Median }

// nsQuantilesUs sorts ns in place and returns the requested quantiles in
// microseconds.
func nsQuantilesUs(ns []int64, qs ...float64) []float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v) / 1e3
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(f, q)
	}
	return out
}

// spread summarises one metric over a run's rounds: the median is what the
// run reports, min/max are kept so a reader can see how far rounds disagreed.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func spreadOf(vs []float64) spread {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return spread{math.NaN(), math.NaN(), math.NaN()}
	}
	return spread{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
}
