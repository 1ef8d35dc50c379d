package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minTail is the fewest samples a reported percentile must have beyond
// it; with fewer, the harness refuses to report it.
const minTail = 10

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload measured and checked.
type report struct {
	mu                sync.Mutex // guards the counts and failures
	attempted, failed int
	failures          []string // the first few failure messages
	refused           []string // percentiles refused for too few samples
	notes             []string // limits the run missed (not failures)
	metrics           []metric
	sizes             map[string]any // workload sizes for the result's host stamp
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit})
}

// addPercentile reports the q-quantile of xs unless too few samples lie
// beyond it.
func (r *report) addPercentile(name string, xs []float64, q float64, unit string) {
	v, err := percentile(xs, q)
	if err != nil {
		r.refused = append(r.refused, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.add(name, v, unit)
}

// record counts one attempted operation, failed when err is non-nil.
// Safe for concurrent use.
func (r *report) record(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *report) lookup(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1),
// refusing when fewer than minTail samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for an even
// count); it needs no tail, so it is used for small repeat counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
