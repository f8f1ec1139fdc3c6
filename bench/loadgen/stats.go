package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// sample reads 0.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianOfSlices reduces per-slice metric maps to one value per metric:
// the median across the slices that have it.
func medianOfSlices(slices []map[string]float64) map[string]float64 {
	columns := map[string][]float64{}
	for _, sl := range slices {
		for name, v := range sl {
			columns[name] = append(columns[name], v)
		}
	}
	out := make(map[string]float64, len(columns))
	for name, vals := range columns {
		out[name] = median(vals)
	}
	return out
}
