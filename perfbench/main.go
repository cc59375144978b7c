// Command perfbench is the repository's outside-in benchmark. It drives the
// public training API on three workloads, prints every metric with its unit
// and the correctness gates, and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload cifar_ttt_w1 --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs through
// trainer.Session; with --trace 1 it repeats the untraced run, replays the
// same steps through a traced copy of Session.Run's loop and reports the
// per-layer metrics. See README.md for the workloads and the method.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricSpec names one reported metric. The lists below are the contract
// with BENCHMARK.json; TestBenchmarkJSONMatches keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndMetrics = []metricSpec{
	{"time_to_target_s", "s", "lower"},
	{"sgd_time_to_target_s", "s", "lower"},
	{"epochs_to_target", "epochs", "lower"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_p75", "ms", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

var perLayerMetrics = []metricSpec{
	{"nn.forward_ms", "ms", "lower"},
	{"nn.backward_ms", "ms", "lower"},
	{"nn.gflops", "GFLOP/s", "higher"},
	{"nn.eval_ms", "ms", "lower"},
	{"data.batches_ms", "ms", "lower"},
	{"kfac.stale_step_ms", "ms", "lower"},
	{"kfac.factor_step_ms", "ms", "lower"},
	{"kfac.eig_step_ms", "ms", "lower"},
	{"tensor.gemm_gflops", "GFLOP/s", "higher"},
	{"linalg.symmul_gflops", "GFLOP/s", "higher"},
	{"linalg.eig_gflops", "GFLOP/s", "higher"},
	{"comm.grad_allreduce_ms", "ms", "lower"},
	{"comm.send_bytes_per_step", "B", "lower"},
	{"comm.send_calls_per_step", "count", "lower"},
	{"comm.recv_wait_ms_per_step", "ms", "lower"},
	{"optim.step_ms", "ms", "lower"},
	{"trainer.self_ms", "ms", "lower"},
	{"mem.allocs_per_step", "count", "lower"},
	{"mem.alloc_bytes_per_step", "B", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// runTimeout stops a run that would otherwise overstay its time limit (a
// wedged TCP peer, say) with an error instead of a hang.
const runTimeout = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 42, "input seed")
		seconds = flag.Int("seconds", 5, "measured window of the throughput workloads, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
		outDir  = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runTimeout)
		os.Exit(3)
	})

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintln(out, hostBlock())

	stealStart := readCPUSteal()
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, traceDir: *outDir}
	var rep *report
	var acct accounting
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, cfg, &acct)
	} else {
		rep, err = runEndToEnd(w, cfg, &acct)
	}
	if err == nil {
		err = checkMetricSet(rep, *trace == 1)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.note("host cpu steal %.1f%% of the run's CPU time (/proc/stat)", 100*readCPUSteal().share(stealStart))
	printReport(out, rep, acct)
}

// accounting counts optimizer steps attempted and failed across every run
// the benchmark makes. A step fails on a returned error or a non-finite
// loss; a missed target fails the run and counts as one failed attempt.
type accounting struct{ attempted, failed int }

func (a *accounting) addRun(losses [][]float64, runErr error) {
	steps := 0
	for _, l := range losses {
		steps = max(steps, len(l))
	}
	a.attempted += steps
	for i := 0; i < steps; i++ {
		for _, l := range losses {
			if i < len(l) && !finite(l[i:i+1]) {
				a.failed++
				break
			}
		}
	}
	if runErr != nil {
		a.attempted++
		a.failed++
	}
}

// hostBlock describes the machine a result was measured on.
func hostBlock() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			commit = rev
			if dirty {
				commit += "+dirty"
			}
		}
	}
	return fmt.Sprintf("host nproc=%d cpu=%q gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkMetricSet verifies a report carries exactly the metrics of its mode,
// each with its declared unit and a finite value.
func checkMetricSet(rep *report, traced bool) error {
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("report has %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !finite([]float64{got.Value}) {
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	return nil
}

func printReport(out *bufio.Writer, rep *report, acct accounting) {
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, g := range rep.gates {
		status := "ok"
		if !g.ok {
			status = "FAILED"
		}
		fmt.Fprintf(out, "gate %-28s %s  %s\n", g.name, status, g.info)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	fmt.Fprintf(out, "steps attempted=%d failed=%d\n", acct.attempted, acct.failed)
	res := result{Correct: rep.correct() && acct.failed == 0, Attempted: max(acct.attempted, 1),
		Failed: acct.failed, Metrics: rep.metrics}
	// checkMetricSet admitted only finite values, so encoding cannot fail.
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
}
