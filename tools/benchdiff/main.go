// Command benchdiff compares a fresh `kfac-bench -json` run against the
// committed bench/BENCH_*.json reference trajectory and reports step-time
// and allocation regressions per scenario.
//
// Usage:
//
//	go run ./tools/benchdiff -ref bench -new bench-artifacts
//	go run ./tools/benchdiff -ref bench -new bench-artifacts -strict
//	go run ./tools/benchdiff -a bench -b bench-artifacts
//	go run ./tools/benchdiff -a bench -b bench -suffix _autotune
//	go run ./tools/benchdiff -ref bench -new bench-artifacts -fabric tcp
//
// The -a/-b pair is the general two-directory form (-a is the baseline,
// -b the candidate); -ref/-new remain as the regression-gate spelling and
// the two pairs are interchangeable. With -suffix S, side B keeps only the
// scenarios whose name ends in S, rekeyed without the suffix — so
// `-a bench -b bench -suffix _autotune` lines the committed autotune cells
// (dist_small_w4_commopt_autotune, …) up against their static counterparts
// and prints the controller's overhead as the step-time delta.
//
// Scenarios are matched by their "scenario" field; entries present on only
// one side are listed but never fail the run (the matrices may evolve).
// Step-time deltas use a deliberately loose default tolerance — absolute
// timings on shared CI runners are noise — while allocation counts are
// deterministic and gate tightly. The exit status is 0 unless -strict is
// set and a regression was found, so CI can run it as a soft-fail
// regression report step.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// load reads every BENCH_*.json in dir, keyed by scenario. A non-empty
// suffix keeps only scenarios ending in it and strips it from the key, so a
// suffixed matrix slice (e.g. the _autotune cells) can be compared against its
// unsuffixed baseline. A non-empty fabric keeps only cells measured on that
// transport — the committed references mix in-process w4 cells with
// multi-process tcp w16/w32 cells, and a run covers one transport at a time.
func load(dir, suffix, fabric string) (map[string]*experiments.BenchResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*experiments.BenchResult, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r experiments.BenchResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != "" && r.Schema != experiments.BenchSchema {
			// Foreign-schema artifacts (e.g. BENCH_eig.json, the kernel
			// microbenchmark) live alongside the step cells but are not
			// step trajectories; skip them.
			continue
		}
		if r.Scenario == "" {
			return nil, fmt.Errorf("%s: missing scenario field", p)
		}
		if fabric != "" && r.Fabric != fabric {
			continue
		}
		key := r.Scenario
		if suffix != "" {
			if !strings.HasSuffix(key, suffix) {
				continue
			}
			key = strings.TrimSuffix(key, suffix)
		}
		out[key] = &r
	}
	return out, nil
}

// stageCol formats one stage's ref→new pair with its relative delta,
// e.g. " 120.4→  48.1ms  -60%".
func stageCol(ref, new int64) string {
	return fmt.Sprintf("%7.1f→%7.1fms %+4.0f%%",
		float64(ref)/1e6, float64(new)/1e6, 100*relDelta(ref, new))
}

// relDelta returns (new-old)/old, or 0 when old is 0.
func relDelta(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return float64(new-old) / float64(old)
}

func main() {
	var (
		refDir    = flag.String("ref", "bench", "directory holding the committed reference BENCH_*.json")
		newDir    = flag.String("new", ".", "directory holding the fresh run's BENCH_*.json")
		aDir      = flag.String("a", "", "baseline directory (general two-directory form; overrides -ref)")
		bDir      = flag.String("b", "", "candidate directory (general two-directory form; overrides -new)")
		suffix    = flag.String("suffix", "", "keep only side-B scenarios with this suffix, rekeyed without it (e.g. _autotune)")
		fabric    = flag.String("fabric", "", "compare only cells measured on this transport (local, inproc, tcp; empty = all)")
		stepTol   = flag.Float64("step-tol", 0.50, "allowed relative step-time increase (0.50 = +50%)")
		allocsTol = flag.Float64("allocs-tol", 0.10, "allowed relative allocs/step increase beyond the absolute slack")
		allocsAbs = flag.Float64("allocs-abs", 2, "absolute allocs/step slack before the relative tolerance applies")
		strict    = flag.Bool("strict", false, "exit non-zero when a regression exceeds tolerance")
	)
	flag.Parse()

	baseline, candidate := *refDir, *newDir
	if *aDir != "" {
		baseline = *aDir
	}
	if *bDir != "" {
		candidate = *bDir
	}
	ref, err := load(baseline, "", *fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: ref:", err)
		os.Exit(2)
	}
	fresh, err := load(candidate, *suffix, *fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: new:", err)
		os.Exit(2)
	}
	if len(ref) == 0 || len(fresh) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: nothing to compare (%d reference, %d fresh)\n", len(ref), len(fresh))
		os.Exit(2)
	}

	var scenarios []string
	for s := range fresh {
		scenarios = append(scenarios, s)
	}
	sort.Strings(scenarios)

	regressions := 0
	fmt.Printf("%-32s %14s %14s %8s   %s\n", "scenario", "ref step", "new step", "Δ", "allocs ref→new")
	for _, s := range scenarios {
		n := fresh[s]
		r, ok := ref[s]
		if !ok {
			fmt.Printf("%-32s %14s %14s %8s   (new scenario, no reference)\n", s, "—", "—", "—")
			continue
		}
		d := relDelta(r.StepTimeMeanNS, n.StepTimeMeanNS)
		mark := ""
		if d > *stepTol {
			mark = "  ← step-time regression"
			regressions++
		}
		allocDelta := n.SteadyAllocsPerStep - r.SteadyAllocsPerStep
		if allocDelta > *allocsAbs && allocDelta > *allocsTol*r.SteadyAllocsPerStep {
			mark += "  ← allocs regression"
			regressions++
		}
		fmt.Printf("%-32s %11.2fms %11.2fms %+7.1f%%   %.1f→%.1f%s\n",
			s, float64(r.StepTimeMeanNS)/1e6, float64(n.StepTimeMeanNS)/1e6, 100*d,
			r.SteadyAllocsPerStep, n.SteadyAllocsPerStep, mark)
	}
	// Per-stage compute breakdown: factor construction, eigendecomposition,
	// and preconditioning GEMMs per scenario. Informational only — stage
	// shares shift by design when solvers or schedules change, and the
	// step-time gate above already bounds the total — but this is where a
	// solver speedup (or regression) is actually visible.
	fmt.Printf("\n%-32s %21s %21s %21s\n", "stage breakdown", "factor ref→new", "eig ref→new", "precond ref→new")
	for _, s := range scenarios {
		n := fresh[s]
		r, ok := ref[s]
		if !ok {
			continue
		}
		if r.FactorComputeNS+r.EigComputeNS+r.PreconditionNS == 0 &&
			n.FactorComputeNS+n.EigComputeNS+n.PreconditionNS == 0 {
			continue
		}
		fmt.Printf("%-32s %s %s %s\n", s,
			stageCol(r.FactorComputeNS, n.FactorComputeNS),
			stageCol(r.EigComputeNS, n.EigComputeNS),
			stageCol(r.PreconditionNS, n.PreconditionNS))
	}

	var refOnly []string
	if *suffix == "" {
		// Under -suffix the sides intentionally cover different matrix
		// slices; listing the unsuffixed remainder as "missing" is noise.
		for s := range ref {
			if _, ok := fresh[s]; !ok {
				refOnly = append(refOnly, s)
			}
		}
	}
	sort.Strings(refOnly)
	for _, s := range refOnly {
		fmt.Printf("%-32s (reference scenario missing from this run)\n", s)
	}

	if regressions > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s) beyond tolerance (step %.0f%%, allocs +%.0f/%.0f%%)\n",
			regressions, 100**stepTol, *allocsAbs, 100**allocsTol)
		if *strict {
			os.Exit(1)
		}
		fmt.Println("benchdiff: soft-fail mode — reporting only (pass -strict to gate)")
		return
	}
	fmt.Println("\nbenchdiff: no regressions beyond tolerance")
}
