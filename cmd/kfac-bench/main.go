// Command kfac-bench regenerates the paper's tables and figures, and — in
// -json mode — emits the machine-readable benchmark trajectory
// (BENCH_<scenario>.json) every performance-affecting change is measured
// against.
//
// Usage:
//
//	kfac-bench -list              # show all experiment IDs
//	kfac-bench -exp table1        # run one experiment
//	kfac-bench -exp profile       # measured K-FAC stage profile at several worlds
//	kfac-bench -exp chaos         # step-time degradation vs injected latency
//	kfac-bench -all               # run everything
//	kfac-bench -all -quick        # smoke-test scale (seconds instead of minutes)
//	kfac-bench -json -out bench/  # write BENCH_*.json (model sizes plus the
//	                              # dist_* distribution-mode axis)
//	kfac-bench -json -short       # tiny-model JSON smoke run (the CI artifact job)
//
// Each experiment prints its table/series to stdout together with the
// paper's reported values for comparison; see EXPERIMENTS.md for the
// recorded paper-vs-measured summary and docs/PERFORMANCE.md for the JSON
// schema and tuning guidance. Interrupting the process (SIGINT/SIGTERM)
// cancels the in-progress runs cleanly through the trainer's context
// plumbing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// usage prints the grouped flag reference; the default flag.PrintDefaults
// interleaves unrelated flag families alphabetically.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `kfac-bench — paper artifacts and benchmark trajectories

Experiment selection:
  -list         list experiment IDs
  -exp ID       run one experiment (see -list)
  -all          run every experiment
  -quick        reduced-scale smoke runs (with -exp/-all)

Benchmark JSON mode:
  -json         run the benchmark matrix and write BENCH_<scenario>.json:
                the single-process <model>_sync cells plus the dist_* axis
                ({COMM-OPT, MEM-OPT, HYBRID} × grad-worker fraction, with
                per-rank peak factor memory)
  -out DIR      output directory for BENCH_*.json (default ".")
  -short        tiny-model matrix for CI smoke jobs (with -json)
  -world N      dist_* axis world size (0 = 4 in-process, 16 for -fabric tcp)
  -fabric F     dist transport: inproc (goroutines, the default) or tcp
                (one OS process per rank over the TCP transport; runs the
                {commopt, memopt, hybrid50} sweep)
  -cells        print the BENCH_<scenario> cell names the configured axes
                emit, one per line, and exit (CI derives its artifact
                asserts from this instead of a baked-in file list)
  -eig          run the eigensolver microbenchmark instead of the step
                matrix and write BENCH_eig.json (serial vs blocked vs
                GOMAXPROCS-teamed at dims 256/1024/4096; -short shrinks
                the ladder); carries its own schema, kfac-bench/eig/v1

Common:
  -seed N       random seed (default 42)

Examples:
  kfac-bench -exp table1
  kfac-bench -all -quick
  kfac-bench -json -out bench-artifacts
  kfac-bench -json -short
  kfac-bench -json -fabric tcp -world 16 -out bench-artifacts
  kfac-bench -json -short -cells
  kfac-bench -json -eig -out bench-artifacts
`)
}

func main() {
	var (
		expID    = flag.String("exp", "", "experiment ID to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs")
		quick    = flag.Bool("quick", false, "reduced-scale smoke runs")
		jsonMode = flag.Bool("json", false, "emit BENCH_<scenario>.json benchmark trajectories")
		outDir   = flag.String("out", ".", "output directory for -json results")
		short    = flag.Bool("short", false, "tiny-model -json matrix (CI smoke)")
		world    = flag.Int("world", 0, "dist_* axis world size (0 = fabric default)")
		fabric   = flag.String("fabric", "inproc", "dist transport: inproc or tcp")
		cells    = flag.Bool("cells", false, "print the cell names the configured axes emit and exit")
		eig      = flag.Bool("eig", false, "eigensolver microbenchmark: write BENCH_eig.json (with -json)")
		tcpRank  = flag.Int("tcp-rank", -1, "internal: TCP child rank (spawned by -fabric tcp)")
		addrs    = flag.String("addrs", "", "internal: comma-separated TCP rank addresses")
		seed     = flag.Int64("seed", 42, "random seed")
	)
	flag.Usage = usage
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
	case *cells:
		var names []string
		switch *fabric {
		case "tcp":
			names = experiments.TCPBenchCells(*short, *world)
		default:
			names = experiments.BenchCells(experiments.BenchConfig{
				Short: *short, World: *world,
			})
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case *jsonMode && *eig:
		path, err := experiments.RunEigBench(ctx, *outDir, *short, *seed)
		if err != nil {
			fail("bench-eig", err)
		}
		fmt.Println(path)
	case *jsonMode && *tcpRank >= 0:
		// Child of a -fabric tcp parent: one rank of the multi-process world.
		err := experiments.RunBenchTCPChild(ctx, *outDir, *short, *seed, *world, *tcpRank,
			strings.Split(*addrs, ","))
		if err != nil {
			fail(fmt.Sprintf("bench-tcp-rank%d", *tcpRank), err)
		}
	case *jsonMode && *fabric == "tcp":
		exe, err := os.Executable()
		if err != nil {
			fail("bench-tcp", err)
		}
		paths, err := experiments.RunBenchTCP(ctx, *outDir, *short, *seed, *world, exe)
		for _, p := range paths {
			fmt.Println(p)
		}
		if err != nil {
			fail("bench-tcp", err)
		}
	case *jsonMode:
		paths, err := experiments.RunBenchJSONConfig(ctx, *outDir, experiments.BenchConfig{
			Short: *short, Seed: *seed, World: *world,
		})
		for _, p := range paths {
			fmt.Println(p)
		}
		if err != nil {
			fail("bench-json", err)
		}
	case *all:
		for _, e := range experiments.All() {
			start := time.Now()
			if err := e.Run(ctx, os.Stdout, cfg); err != nil {
				fail(e.ID, err)
			}
			fmt.Printf("   [%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	case *expID != "":
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(2)
		}
		if err := e.Run(ctx, os.Stdout, cfg); err != nil {
			fail(e.ID, err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// fail reports an experiment error, distinguishing operator interruption
// from real failures.
func fail(id string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", id)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
	os.Exit(1)
}
