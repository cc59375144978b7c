package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 75, 8}, // ceil(7.5) = 8th smallest
		{ten, 90, 9},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{3}, 75, 3},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 51, 3},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: the union counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.inner", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 40, Parent: -1},
	}
	want := []time.Duration{100 - (40 + 10), 20 - 6, 30, 30, 6, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerDropsBeyondCapacity(t *testing.T) {
	tr := newTracer(time.Now(), 1, 2)
	root := tr.begin("step", -1)
	kid := tr.begin("kid", root)
	tr.end(kid)
	if over := tr.begin("over", root); over != -1 {
		t.Fatalf("begin beyond capacity returned %d, want -1", over)
	}
	tr.end(-1) // a dropped span's end is a no-op
	tr.end(root)
	if len(tr.spans) != 2 || tr.dropped != 1 {
		t.Fatalf("recorded %d spans, dropped %d; want 2 and 1", len(tr.spans), tr.dropped)
	}
	if s := tr.spans[kid]; s.Parent != root || s.Rank != 1 || s.End < s.Start {
		t.Errorf("child span %+v", s)
	}
}

func TestValidMetricName(t *testing.T) {
	for _, m := range append(slices.Clone(endToEndMetrics), perLayerMetrics...) {
		if !validMetricName(m.Name) {
			t.Errorf("declared metric %q is not a valid name", m.Name)
		}
	}
	for _, ok := range []string{"a", "1x", "a.b-c_d", strings.Repeat("x", 64)} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "ms%", "é", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

func TestSameLosses(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	if ok, detail := sameLosses(a, [][]float64{{1, 2}, {3, 4}}); !ok {
		t.Errorf("equal losses reported unequal: %s", detail)
	}
	for _, b := range [][][]float64{
		{{1, 2}, {3, math.Nextafter(4, 5)}},
		{{1, 2}, {3}},
		{{1, 2}},
	} {
		if ok, _ := sameLosses(a, b); ok {
			t.Errorf("sameLosses(%v, %v) = true", a, b)
		}
	}
	if ok, _ := sameLosses([][]float64{{0}}, [][]float64{{math.Copysign(0, -1)}}); ok {
		t.Error("+0 and -0 differ bitwise")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload lists the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"bash", "perfbench/run.sh"}) || !slices.Equal(spec.Paths, []string{"perfbench"}) {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if !slices.Equal(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", spec.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(spec.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", spec.PerLayer, perLayerMetrics)
	}
}

// smokeVariant shrinks a workload to a few steps of a small model: every
// stage of the benchmark runs, in seconds.
func smokeVariant(w *workload) *workload {
	s := *w
	s.blocks, s.width, s.trainN, s.testN = 1, 4, 256, 64
	if s.timeToAccuracy() {
		s.epochs = 1
	} else {
		s.warmup, s.period, s.targetSteps = 1, 1, 2
	}
	if s.factorFreq > 1 {
		// Every kind of K-FAC step within the few steps run.
		s.factorFreq, s.invFreq = 2, 4
	}
	return &s
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	for _, base := range workloads {
		w := smokeVariant(base)
		cfg := runConfig{seed: 7, window: time.Millisecond}
		t.Run(w.name, func(t *testing.T) {
			var acct accounting
			rep, err := runEndToEnd(w, cfg, &acct)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMetricSet(rep, false); err != nil {
				t.Error(err)
			}
			// One epoch cannot reach the time-to-accuracy target; every
			// other gate must hold.
			for _, g := range rep.gates {
				if !g.ok && g.name != "both_reach_target" {
					t.Errorf("gate %s failed: %s", g.name, g.info)
				}
			}
			if acct.attempted == 0 {
				t.Error("no steps attempted")
			}

			acct = accounting{}
			rep, err = runTraced(w, cfg, &acct)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMetricSet(rep, true); err != nil {
				t.Error(err)
			}
			for _, g := range rep.gates {
				if !g.ok {
					t.Errorf("gate %s failed: %s", g.name, g.info)
				}
			}
			if acct.failed != 0 {
				t.Errorf("%d of %d steps failed", acct.failed, acct.attempted)
			}
		})
	}
}
