// Package trainer implements the synchronous data-parallel training loop of
// the paper (§II-B, Figure 1): per-rank forward/backward over a local
// mini-batch shard, ring-allreduce gradient exchange, optional K-FAC
// preconditioning (Listing 1 ordering: synchronize → precondition → step),
// and a first-order optimizer update — plus distributed validation and the
// learning-rate / damping / update-frequency schedules the experiments use.
//
// The K-FAC Step fully drains its asynchronous collectives (the fused
// factor allreduce chunks) before returning, keeping the global collective
// order deterministic across ranks.
package trainer

import (
	"context"
	"io"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
)

// Config parameterizes a training run. The zero value is not runnable; see
// the field comments for required entries.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchPerRank is the local mini-batch size; the effective global batch
	// is BatchPerRank × world size (the paper: 32 per GPU).
	BatchPerRank int
	// LR is the learning-rate schedule (already scaled for the world size,
	// per the paper's N×0.0125 linear-scaling rule).
	LR optim.LRSchedule
	// Momentum for SGD (paper: 0.9).
	Momentum float64
	// WeightDecay for SGD (0 disables).
	WeightDecay float64
	// LabelSmoothing ε for the loss (paper: 0.1 on ImageNet).
	LabelSmoothing float64
	// KFAC enables K-FAC preconditioning when non-nil.
	KFAC *kfac.Options
	// DampingSchedule optionally decays K-FAC damping at fixed epochs.
	DampingSchedule *kfac.ParamSchedule
	// FreqSchedule optionally decays kfac-update-freq at fixed epochs.
	FreqSchedule *kfac.ParamSchedule
	// FusionBytes bounds the gradient-fusion buffer (0 = default 16 MB).
	FusionBytes int
	// Seed drives data sharding; must agree across ranks.
	Seed int64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
	// StopAtValAcc, when positive, ends training at the first epoch whose
	// validation accuracy reaches the threshold — the paper's
	// time-to-baseline measurement (e.g. 75.9% for ResNet-50/ImageNet).
	StopAtValAcc float64
	// TrackTop5 additionally records top-5 validation accuracy.
	TrackTop5 bool
	// AccumSteps accumulates gradients over this many micro-batches before
	// the (single) gradient exchange and optimizer step, emulating a
	// larger effective batch without more memory (0/1 = off). The
	// effective batch becomes BatchPerRank × AccumSteps × world.
	AccumSteps int
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	LR        float64
	TrainLoss float64
	TrainAcc  float64
	ValAcc    float64
	ValTop5   float64 // populated when Config.TrackTop5 is set
	Wall      time.Duration
}

// Result summarizes a training run.
type Result struct {
	History     []EpochStats
	FinalValAcc float64
	BestValAcc  float64
	Iterations  int
	// Stopped reports whether StopAtValAcc ended training early.
	Stopped bool
	// TotalWall is the summed epoch wall time (training + validation).
	TotalWall time.Duration
	// KFACStats holds the preconditioner's measured stage profile (nil for
	// SGD runs) — the real-run analogue of the paper's Table V.
	KFACStats *kfac.StageStats
}

// EpochsToReach returns the first 1-based epoch whose validation accuracy
// meets the threshold, or -1 if never reached. This is the paper's
// "converges to the 75.9% baseline in the 43rd epoch" measurement.
func (r *Result) EpochsToReach(acc float64) int {
	for _, e := range r.History {
		if e.ValAcc >= acc {
			return e.Epoch + 1
		}
	}
	return -1
}

// TrainRank trains net on this rank's shards. c may be nil for
// single-process runs. All ranks must use identical Config and datasets
// (each rank loads the full dataset and iterates its shard, as PyTorch's
// DistributedSampler does).
//
// Deprecated: TrainRank is a thin shim over the Session API — the Config
// fields map onto session options (Log, StopAtValAcc and TrackTop5 become
// the stock WithLogger, WithStopAtValAcc and WithTop5 hooks) and the run
// executes under context.Background. New code should build a Session and
// call Run(ctx) for hooks and cancellation.
func TrainRank(net *nn.Sequential, c *comm.Communicator, train, test *data.Dataset, cfg Config) (*Result, error) {
	s, err := NewSession(net, c, train, test, sessionOptionsFromConfig(cfg)...)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// sessionOptionsFromConfig translates the legacy Config struct into the
// equivalent session options, preserving the legacy ordering of the stock
// hooks (log first, then the early-stop decision).
func sessionOptionsFromConfig(cfg Config) []SessionOption {
	opts := []SessionOption{
		WithEpochs(cfg.Epochs),
		WithBatchPerRank(cfg.BatchPerRank),
		WithLRSchedule(cfg.LR),
		WithMomentum(cfg.Momentum),
		WithWeightDecay(cfg.WeightDecay),
		WithLabelSmoothing(cfg.LabelSmoothing),
		WithSeed(cfg.Seed),
		WithAccumSteps(cfg.AccumSteps),
		WithFusionBytes(cfg.FusionBytes),
	}
	if cfg.KFAC != nil {
		opts = append(opts, WithKFACOptions(*cfg.KFAC))
	}
	if cfg.DampingSchedule != nil {
		opts = append(opts, WithDampingSchedule(cfg.DampingSchedule))
	}
	if cfg.FreqSchedule != nil {
		opts = append(opts, WithFreqSchedule(cfg.FreqSchedule))
	}
	if cfg.TrackTop5 {
		opts = append(opts, WithTop5())
	}
	if cfg.Log != nil {
		opts = append(opts, WithLogger(cfg.Log))
	}
	if cfg.StopAtValAcc > 0 {
		opts = append(opts, WithStopAtValAcc(cfg.StopAtValAcc))
	}
	return opts
}

// Evaluate computes validation accuracy over test, sharded across ranks and
// averaged by example count.
func Evaluate(net *nn.Sequential, c *comm.Communicator, test *data.Dataset, batch int, seed int64) (float64, error) {
	acc, _, err := evaluateTopK(net, c, test, batch, seed, false)
	return acc, err
}

// evaluateTopK computes top-1 (and optionally top-5) validation accuracy.
func evaluateTopK(net *nn.Sequential, c *comm.Communicator, test *data.Dataset,
	batch int, seed int64, top5 bool) (float64, float64, error) {
	rank, world := 0, 1
	if c != nil {
		rank, world = c.Rank(), c.Size()
	}
	sampler := data.ShardSampler{N: test.Len(), Rank: rank, World: world, Seed: seed}
	idx := sampler.EpochIndices(0)
	var correct, correct5, total float64
	for _, b := range data.Batches(test, idx, batch) {
		out := net.Forward(b.X, false)
		n := float64(len(b.Labels))
		correct += nn.Accuracy(out, b.Labels) * n
		if top5 {
			correct5 += metrics.TopKAccuracy(out, b.Labels, 5) * n
		}
		total += n
	}
	if c != nil && world > 1 {
		buf := []float64{correct, correct5, total}
		if err := c.AllreduceSum(buf); err != nil {
			return 0, 0, err
		}
		correct, correct5, total = buf[0], buf[1], buf[2]
	}
	if total == 0 {
		return 0, 0, nil
	}
	return correct / total, correct5 / total, nil
}

// RunDistributed builds one model replica per rank over an in-process
// fabric and trains them in parallel, returning every rank's Result. buildNet
// is called once per rank with a rank-independent seed so replicas start
// identical (the initial broadcast enforces it regardless).
//
// Deprecated: RunDistributed is a thin shim over RunSessions (the Session
// API's multi-rank runner) under context.Background; new code should call
// RunSessions for hooks and cancellation.
func RunDistributed(world int, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, cfg Config) ([]*Result, error) {
	return RunSessions(context.Background(), world, buildNet, train, test,
		sessionOptionsFromConfig(cfg)...)
}
