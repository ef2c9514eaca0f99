package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of v. Refused operations
// carry +Inf; a quantile landing on one reports the largest finite
// sample times two, so a refusal always reads as a miss without
// poisoning the JSON output.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if !math.IsInf(s[i], 1) {
		return s[i]
	}
	for j := len(s) - 1; j >= 0; j-- {
		if !math.IsInf(s[j], 1) {
			return 2 * s[j]
		}
	}
	return math.MaxFloat64
}

// supportedQuantile is the highest quantile that leaves at least ten
// samples beyond it.
func supportedQuantile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// fmtSeconds renders per-repetition times for the run's notes.
func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
