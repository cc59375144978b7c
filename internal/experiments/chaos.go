package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Step-time degradation under injected network latency",
		Paper: "§V-A motivation: communication latency is part of every K-FAC step; the chaos transport makes its cost measurable by dialing delivery delay up",
		Run:   runChaos,
	})
}

// runChaos trains the same 2-rank K-FAC configuration under increasing
// per-message injected latency and reports mean optimizer-step wall time
// and its slowdown against the latency-free run. Results are identical
// across latencies by construction (latency-only schedules never change
// arithmetic; see comm.ChaosConfig), and the experiment fails if the final
// training loss moves by a single bit.
func runChaos(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("chaos")
	header(w, e)

	const world = 2
	dcfg := data.CIFARLike(cfg.Seed)
	dcfg.Train, dcfg.Test, dcfg.Size, dcfg.Noise = 192, 48, 12, 0.8
	epochs := 2
	latencies := []time.Duration{0, 200 * time.Microsecond, 1 * time.Millisecond}
	if cfg.Quick {
		dcfg.Train, dcfg.Test = 96, 32
		epochs = 1
		latencies = []time.Duration{0, 500 * time.Microsecond}
	}
	train, test := data.GenerateSynthetic(dcfg)

	build := func(rng *rand.Rand) *nn.Sequential {
		return models.BuildSmallCNN(dcfg.Channels, 6, dcfg.Classes, rng)
	}
	runOne := func(maxLatency time.Duration) (stepMS float64, loss float64, err error) {
		var fab comm.Fabric = comm.NewInprocFabric(world)
		if maxLatency > 0 {
			fab = comm.NewChaosFabric(fab, world, comm.ChaosConfig{
				Seed:       cfg.Seed,
				MinLatency: maxLatency / 10,
				MaxLatency: maxLatency,
			})
		}
		start := time.Now()
		results, err := trainer.RunSessionsOn(ctx, fab, world, build, train, test,
			trainer.WithEpochs(epochs),
			trainer.WithBatchPerRank(16),
			trainer.WithLRSchedule(optim.LRSchedule{BaseLR: 0.05}),
			trainer.WithMomentum(0.9),
			trainer.WithSeed(cfg.Seed),
			trainer.WithKFAC(
				kfac.WithFactorUpdateFreq(1),
				kfac.WithInvUpdateFreq(2)),
		)
		if err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		r := results[0]
		if r.Iterations == 0 {
			return 0, 0, fmt.Errorf("chaos experiment ran zero iterations")
		}
		last := r.History[len(r.History)-1]
		return float64(wall) / float64(time.Millisecond) / float64(r.Iterations), last.TrainLoss, nil
	}

	fmt.Fprintf(w, "%-14s  %12s  %10s  %14s\n", "max latency", "ms/step", "slowdown", "final loss")
	var baseMS, baseLoss float64
	for i, lat := range latencies {
		stepMS, loss, err := runOne(lat)
		if err != nil {
			return err
		}
		if i == 0 {
			baseMS, baseLoss = stepMS, loss
		}
		fmt.Fprintf(w, "%-14v  %12.2f  %9.2fx  %14.6f\n", lat, stepMS, stepMS/baseMS, loss)
		if loss != baseLoss {
			return fmt.Errorf("training diverged under latency %v: final loss %.17g != %.17g at %v",
				lat, loss, baseLoss, latencies[0])
		}
	}
	fmt.Fprintln(w, "shape check: identical losses at every latency; step time grows with injected latency")
	return nil
}
