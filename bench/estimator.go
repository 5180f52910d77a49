package main

import (
	"math"
	"slices"
)

// direction says which way a metric improves.
type direction bool

const (
	higherIsBetter direction = true  // rates: trials/s, instr/s
	lowerIsBetter  direction = false // costs: seconds, CPU per trial
)

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the linearly interpolated q-quantile of an ascending slice —
// the "inclusive" method, so it is defined down to one sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method: position q·(n+1); the two agree from three
// samples up, and below that this one clamps where Python extrapolates), so
// the spreads this program prints are the spreads the pipeline computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1 // zero-based
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.75)
}

// iqrShare is the inter-quartile distance as a share of the median — the
// spread statistic the bounds are calibrated against.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
