package main

import (
	"math"
	"sort"
	"time"
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// xs computed like Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the repeat mode reports the same spread the
// acceptance check computes. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentiles are the percentiles a timing may be reported at
// beyond its median, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// reportable returns the percentiles a timing with n samples may be
// reported at: always the median, plus the highest tail percentile
// that leaves at least ten samples beyond it. Below forty samples a
// tail would be no tail, so only the median is reported.
func reportable(n int) []float64 {
	out := []float64{50}
	if n < 40 {
		return out
	}
	for _, p := range tailPercentiles {
		// Samples beyond the nearest-rank percentile; the epsilon keeps
		// 99.9% of 10000 at rank 9990 despite float rounding.
		if n-int(math.Ceil(p/100*float64(n)-1e-9)) >= 10 {
			return append(out, p)
		}
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
