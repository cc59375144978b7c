package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the result format: a letter or
// digit first, then at most 63 more of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in insertion order for printing, and the
// correctness gates with their outcome.
type report struct {
	names   []string
	metrics map[string]metric
	gates   []gate
	notes   []string
}

type gate struct {
	name string
	ok   bool
	info string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if !g.ok {
			return false
		}
	}
	return true
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
