// Multi-process TCP-fabric benchmark driver: the dist_* cells executed
// across real OS processes connected by comm.TCPFabric instead of
// goroutines over an in-process fabric. This is the closest the benchmark
// harness comes to the paper's multi-node deployment — serialization, the
// kernel network stack, and scheduler interference are all on the measured
// path, which is what makes the committed w16/w32 trajectories honest
// calibration anchors for the topology cost model.
//
// The parent (kfac-bench -json -fabric tcp) reserves one loopback port per
// rank, re-executes its own binary once per rank with -tcp-rank/-addrs,
// and waits; each child joins the TCP world once and runs every cell of
// the TCP matrix over the same fabric (per-cell reconnection would measure
// dial/teardown, not training). Rank 0 writes the BENCH_*.json files.
package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/kfac"
)

// DefaultTCPWorld is the TCP driver's world size when none is requested:
// large enough to span multiple modeled nodes, small enough that 16
// single-threaded training processes fit a CI runner.
const DefaultTCPWorld = 16

// tcpJoinTimeout bounds the full-mesh connection phase; loopback worlds
// join in milliseconds, so a hit here means a child died before listening.
const tcpJoinTimeout = 30 * time.Second

// TCPBenchCells returns, in run order, the scenario names the TCP driver
// emits for (short, world) — the same derivation-over-axes contract as
// BenchCells. The TCP matrix is the f64 mode sweep {commopt, memopt,
// hybrid50}: three cells covering both tradeoff endpoints plus one
// interpolation, kept small because every cell costs world OS processes.
func TCPBenchCells(short bool, world int) []string {
	cells := tcpMatrix(short, world)
	out := make([]string, len(cells))
	for i, sc := range cells {
		out[i] = sc.scenarioName()
	}
	return out
}

// tcpMatrix returns the TCP driver's scenario list at the given world size
// (0 = DefaultTCPWorld).
func tcpMatrix(short bool, world int) []distScenario {
	model, blocks, width, batch, steps := "small", 1, 8, 8, 8
	if short {
		model, blocks, width, batch, steps = "tiny", 1, 4, 4, 4
	}
	if world <= 0 {
		world = DefaultTCPWorld
	}
	cells := []struct {
		name string
		mode kfac.DistMode
		frac float64
	}{
		{"commopt", kfac.CommOpt, 0},
		{"memopt", kfac.MemOpt, 0},
		{"hybrid50", kfac.Hybrid, 0.5},
	}
	out := make([]distScenario, 0, len(cells))
	for _, c := range cells {
		out = append(out, distScenario{
			name: c.name, mode: c.mode, frac: c.frac,
			model: model, blocks: blocks, width: width, batch: batch,
			world: world, steps: steps, fabric: "tcp",
		})
	}
	return out
}

// RunBenchTCP is the parent side of the multi-process driver: it reserves
// one loopback port per rank, spawns exe (normally the running kfac-bench
// binary, via os.Executable) once per rank with the child flags, and waits
// for every rank to exit. Rank 0's child writes the BENCH_*.json files;
// the returned paths are the TCPBenchCells-derived file names, verified to
// exist. If any rank fails, every other rank is killed before returning —
// a dead peer leaves the survivors blocked inside a collective, and the
// parent must not hang on them.
func RunBenchTCP(ctx context.Context, outDir string, short bool, seed int64, world int, exe string) ([]string, error) {
	if world <= 0 {
		world = DefaultTCPWorld
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	addrs := make([]string, world)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench tcp: reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	procs := make([]*exec.Cmd, 0, world)
	killExcept := func(except int) {
		for q, p := range procs {
			if q != except && p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}
	for r := 0; r < world; r++ {
		args := []string{
			"-json", "-fabric", "tcp",
			"-tcp-rank", fmt.Sprint(r), "-addrs", strings.Join(addrs, ","),
			"-out", outDir, "-world", fmt.Sprint(world), "-seed", fmt.Sprint(seed),
		}
		if short {
			args = append(args, "-short")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		if r == 0 {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			killExcept(-1)
			for _, p := range procs {
				_ = p.Wait()
			}
			return nil, fmt.Errorf("bench tcp: spawn rank %d: %w", r, err)
		}
		procs = append(procs, cmd)
	}
	var firstErr error
	for r, p := range procs {
		if err := p.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench tcp: rank %d: %w", r, err)
			killExcept(r)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var paths []string
	for _, cell := range TCPBenchCells(short, world) {
		path := filepath.Join(outDir, fmt.Sprintf("BENCH_%s.json", cell))
		if _, err := os.Stat(path); err != nil {
			return paths, fmt.Errorf("bench tcp: rank 0 did not write %s: %w", path, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// RunBenchTCPChild is one rank of the multi-process driver: it joins the
// TCP world once and runs every cell of the TCP matrix over the same
// fabric. After each cell the per-rank peak factor bytes are gathered to
// rank 0, which writes the cell's BENCH_*.json — so the committed record
// carries every process's memory footprint, exactly like the in-process
// driver. A barrier separates cells, keeping the tag sequence of cell N+1
// from racing a slow rank still finishing cell N.
func RunBenchTCPChild(ctx context.Context, outDir string, short bool, seed int64, world, rank int, addrs []string) error {
	if len(addrs) != world {
		return fmt.Errorf("bench tcp: %d addrs for world %d", len(addrs), world)
	}
	fab, err := comm.NewTCPFabric(rank, addrs, tcpJoinTimeout)
	if err != nil {
		return fmt.Errorf("bench tcp: rank %d join: %w", rank, err)
	}
	defer fab.Close()
	c := comm.NewCommunicator(fab).WithContext(ctx)

	for _, sc := range tcpMatrix(short, world) {
		res := newDistBenchResult(sc)
		peak, err := runDistRank(ctx, sc, seed, c, res)
		if err != nil {
			return fmt.Errorf("bench tcp: rank %d cell %s: %w", rank, sc.scenarioName(), err)
		}
		peaks, err := c.Gather([]float64{float64(peak)}, 0)
		if err != nil {
			return fmt.Errorf("bench tcp: rank %d gather peaks: %w", rank, err)
		}
		if rank == 0 {
			for r, v := range peaks {
				res.PeakFactorBytesPerRank[r] = int64(v[0])
			}
			if _, err := writeBenchResult(outDir, res); err != nil {
				return fmt.Errorf("bench tcp: write %s: %w", sc.scenarioName(), err)
			}
		}
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("bench tcp: rank %d barrier: %w", rank, err)
		}
	}
	return nil
}
