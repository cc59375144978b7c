package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRunBenchJSONSchemaStable runs the -short benchmark matrix into a
// temp dir and verifies every emitted file parses and carries the
// documented kfac-bench/v1 fields — the same gate the CI bench-smoke job
// applies to its artifact. The expected file set is DERIVED from the axes
// via BenchCells, not baked in, so adding a world size or mode to the
// matrix updates the expectation automatically.
func TestRunBenchJSONSchemaStable(t *testing.T) {
	dir := t.TempDir()
	cfg := BenchConfig{Short: true, Seed: 42}
	paths, err := RunBenchJSONConfig(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCellsMatch(t, paths, BenchCells(cfg))
	checkBenchFiles(t, paths)

	// Shape invariants derived from the same axes the runner uses.
	wantDist, autotuneCell := 0, ""
	for _, sc := range distMatrix(cfg.Short, cfg.World) {
		wantDist++
		if sc.autotune {
			autotuneCell = sc.scenarioName()
		}
	}
	distSeen, autotuneSeen := countCells(t, paths)
	if distSeen != wantDist {
		t.Errorf("saw %d dist_* scenarios, want %d (derived from distMatrix)", distSeen, wantDist)
	}
	if autotuneCell == "" || !autotuneSeen {
		t.Errorf("autotune bench cell %q missing from the short matrix", autotuneCell)
	}

	// A round-trip through the typed struct must preserve the schema tag
	// (catches accidental field renames).
	var typed BenchResult
	raw, _ := os.ReadFile(paths[0])
	if err := json.Unmarshal(raw, &typed); err != nil {
		t.Fatal(err)
	}
	if typed.Schema != BenchSchema || typed.Scenario == "" {
		t.Errorf("typed round-trip lost fields: %+v", typed)
	}
}

// TestRunBenchJSONWorldAxis runs one non-default world size through the
// in-process driver and verifies world is a real schema axis: derived
// names, the world field, and world-length per-rank memory all follow it.
func TestRunBenchJSONWorldAxis(t *testing.T) {
	dir := t.TempDir()
	cfg := BenchConfig{Short: true, Seed: 42, World: 2}
	paths, err := RunBenchJSONConfig(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCellsMatch(t, paths, BenchCells(cfg))
	for _, p := range paths {
		var typed BenchResult
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &typed); err != nil {
			t.Fatal(err)
		}
		if typed.World == 1 {
			continue // single-process cells
		}
		if typed.World != 2 {
			t.Errorf("%s: world = %d, want the configured 2", p, typed.World)
		}
		if len(typed.PeakFactorBytesPerRank) != 2 {
			t.Errorf("%s: %d per-rank entries, want 2", p, len(typed.PeakFactorBytesPerRank))
		}
		if typed.Fabric != "inproc" {
			t.Errorf("%s: fabric = %q, want inproc", p, typed.Fabric)
		}
	}
}

// TestBenchCellsDerivation pins the derivation contract: names follow the
// dist_<model>_w<world>_<mode> formula at whatever world is asked, and the
// TCP matrix is the three-mode sweep.
func TestBenchCellsDerivation(t *testing.T) {
	cells := BenchCells(BenchConfig{Short: true, World: 32})
	want := map[string]bool{
		"dist_tiny_w32_commopt": true, "dist_tiny_w32_memopt": true,
		"dist_tiny_w32_hybrid25": true, "dist_tiny_w32_hybrid50": true,
		"dist_tiny_w32_commopt_autotune": true,
	}
	for _, c := range cells {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("w32 cells missing: %v (got %v)", want, cells)
	}
	tcp := TCPBenchCells(true, 16)
	wantTCP := []string{"dist_tiny_w16_commopt", "dist_tiny_w16_memopt", "dist_tiny_w16_hybrid50"}
	if len(tcp) != len(wantTCP) {
		t.Fatalf("TCP cells = %v, want %v", tcp, wantTCP)
	}
	for i := range tcp {
		if tcp[i] != wantTCP[i] {
			t.Errorf("TCP cell[%d] = %q, want %q", i, tcp[i], wantTCP[i])
		}
	}
}

// assertCellsMatch checks the emitted file paths are exactly the derived
// cell names, in order.
func assertCellsMatch(t *testing.T, paths, cells []string) {
	t.Helper()
	if len(paths) != len(cells) {
		t.Fatalf("got %d result files, want %d derived cells", len(paths), len(cells))
	}
	for i, p := range paths {
		if want := fmt.Sprintf("BENCH_%s.json", cells[i]); filepath.Base(p) != want {
			t.Errorf("file[%d] = %s, want %s", i, filepath.Base(p), want)
		}
	}
}

// checkBenchFiles applies the per-file schema gate shared with the CI
// artifact job: valid JSON, documented fields, positive timings, world-
// consistent per-rank memory, and the fixed engine and precision fields.
func checkBenchFiles(t *testing.T, paths []string) {
	t.Helper()
	for _, p := range paths {
		if base := filepath.Base(p); base[:6] != "BENCH_" {
			t.Errorf("result file %q does not follow BENCH_<scenario>.json", base)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: not valid JSON: %v", p, err)
		}
		if doc["schema"] != BenchSchema {
			t.Errorf("%s: schema = %v, want %s", p, doc["schema"], BenchSchema)
		}
		for _, key := range []string{
			"scenario", "model", "engine", "precision", "fabric", "steps",
			"world", "dist_mode", "grad_worker_frac", "peak_factor_bytes_per_rank",
			"step_time_mean_ns", "allocs_per_step", "bytes_per_step",
			"factor_compute_ns", "eig_compute_ns", "precondition_ns",
			"steady_steps", "steady_step_time_mean_ns",
			"steady_allocs_per_step", "steady_bytes_per_step",
		} {
			if _, ok := doc[key]; !ok {
				t.Errorf("%s: missing schema field %q", p, key)
			}
		}
		// Sanity: a measured run always reports positive step time.
		if v, ok := doc["step_time_mean_ns"].(float64); !ok || v <= 0 {
			t.Errorf("%s: step_time_mean_ns = %v, want > 0", p, doc["step_time_mean_ns"])
		}
		var typed BenchResult
		if err := json.Unmarshal(raw, &typed); err != nil {
			t.Fatal(err)
		}
		if typed.Precision != benchPrecision {
			t.Errorf("%s: precision = %q, want %q", p, typed.Precision, benchPrecision)
		}
		if typed.Engine != benchEngine {
			t.Errorf("%s: engine = %q, want %q", p, typed.Engine, benchEngine)
		}
		switch typed.Fabric {
		case "local", "inproc", "tcp":
		default:
			t.Errorf("%s: fabric = %q, want local, inproc, or tcp", p, typed.Fabric)
		}
		if typed.World > 1 {
			if len(typed.PeakFactorBytesPerRank) != typed.World {
				t.Errorf("%s: %d per-rank memory entries for world %d",
					p, len(typed.PeakFactorBytesPerRank), typed.World)
			}
			for r, b := range typed.PeakFactorBytesPerRank {
				if b <= 0 {
					t.Errorf("%s: rank %d peak factor bytes = %d, want > 0", p, r, b)
				}
			}
			if typed.DistMode == "" || typed.GradWorkerFrac <= 0 {
				t.Errorf("%s: dist axis not recorded: mode=%q f=%v", p, typed.DistMode, typed.GradWorkerFrac)
			}
		}
	}
}

// countCells tallies dist/autotune cells among emitted files.
func countCells(t *testing.T, paths []string) (dist int, autotune bool) {
	t.Helper()
	for _, p := range paths {
		var typed BenchResult
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &typed); err != nil {
			t.Fatal(err)
		}
		if typed.World > 1 {
			dist++
		}
		if len(typed.Scenario) > 9 && typed.Scenario[len(typed.Scenario)-9:] == "_autotune" {
			autotune = true
		}
	}
	return dist, autotune
}
