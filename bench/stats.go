package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver uses to judge run-to-run spread, so the
// spreads printed here are the ones it will see. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure every bound in BENCHMARK.json is judged against.
// Fewer than two values, or a zero median, carry no spread information.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// tail picks the highest percentile of the ladder that still has at least
// ten samples beyond it and returns its label and value; with fewer than
// 100 samples there is no such percentile and ok is false.
func tail(xs []float64) (label string, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ladder := []struct {
		label  string
		per1e4 int // the percentile, in ten-thousandths
	}{{"p99.99", 9999}, {"p99.9", 9990}, {"p99", 9900}, {"p90", 9000}}
	for _, l := range ladder {
		if beyond := len(s) * (10000 - l.per1e4) / 10000; beyond >= 10 {
			return l.label, s[len(s)-1-beyond], true
		}
	}
	return "", 0, false
}

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pct renders a signed relative change, upct an unsigned share.
func pct(x float64) string  { return fmt.Sprintf("%+.1f%%", 100*x) }
func upct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// tally counts operations attempted and failed and keeps the first failure
// for the report.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) failRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }
