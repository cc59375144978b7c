package trainer

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
)

// tinyDataset returns a small, easy synthetic task the tests can learn in a
// handful of epochs.
func tinyDataset(t *testing.T) (*data.Dataset, *data.Dataset) {
	t.Helper()
	cfg := data.SyntheticConfig{
		Train: 256, Test: 96, Classes: 4,
		Channels: 1, Size: 8, Noise: 0.3, Shift: 1, Seed: 11,
	}
	train, test := data.GenerateSynthetic(cfg)
	return train, test
}

func buildTestNet(rng *rand.Rand) *nn.Sequential {
	return models.BuildSmallCNN(1, 4, 4, rng)
}

// sessionOpts are the options every trainer test starts from: 3 epochs of
// batch-16 SGD with momentum. Tests append overrides (the last option wins).
func sessionOpts() []SessionOption {
	return []SessionOption{
		WithEpochs(3),
		WithBatchPerRank(16),
		WithLRSchedule(optim.LRSchedule{BaseLR: 0.05, WarmupEpochs: 1}),
		WithMomentum(0.9),
		WithSeed(5),
	}
}

// runRank trains net on this rank's shards with sessionOpts plus extra.
func runRank(net *nn.Sequential, c *comm.Communicator, train, test *data.Dataset, extra ...SessionOption) (*Result, error) {
	s, err := NewSession(net, c, train, test, append(sessionOpts(), extra...)...)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// runWorld trains world in-process replicas of buildTestNet with
// sessionOpts plus extra.
func runWorld(world int, train, test *data.Dataset, extra ...SessionOption) ([]*Result, error) {
	return RunSessions(context.Background(), world, buildTestNet, train, test,
		append(sessionOpts(), extra...)...)
}

func TestSingleProcessSGDTrains(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	const epochs, batch = 3, 16 // sessionOpts
	res, err := runRank(net, nil, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != epochs {
		t.Fatalf("history length = %d", len(res.History))
	}
	if res.Iterations != epochs*(train.Len()/batch) {
		t.Errorf("iterations = %d", res.Iterations)
	}
	// Loss should drop from epoch 0 to the last epoch.
	if res.History[epochs-1].TrainLoss >= res.History[0].TrainLoss {
		t.Errorf("loss did not decrease: %v → %v",
			res.History[0].TrainLoss, res.History[epochs-1].TrainLoss)
	}
	// Better than chance (0.25) on validation.
	if res.FinalValAcc <= 0.3 {
		t.Errorf("val acc = %v, want > 0.3", res.FinalValAcc)
	}
}

func TestSingleProcessKFACTrains(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	res, err := runRank(net, nil, train, test,
		WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValAcc <= 0.3 {
		t.Errorf("K-FAC val acc = %v, want > 0.3", res.FinalValAcc)
	}
	for _, p := range net.Params() {
		if p.Value.HasNaN() {
			t.Fatalf("parameter %s has NaN after K-FAC training", p.Name)
		}
	}
}

func TestDistributedMatchesSingleWithSameGlobalBatch(t *testing.T) {
	// 2 ranks × batch 8 must follow the same trajectory as 1 rank × batch
	// 16 when both see the same global batches. Exact equality is not
	// expected (shard order differs within the global batch is fine — the
	// averaged gradient is permutation invariant, so losses should agree
	// closely). We verify the distributed run trains and all ranks agree.
	train, test := tinyDataset(t)
	results, err := runWorld(2, train, test, WithEpochs(2), WithBatchPerRank(8))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FinalValAcc != results[1].FinalValAcc {
		t.Errorf("ranks disagree on val acc: %v vs %v",
			results[0].FinalValAcc, results[1].FinalValAcc)
	}
	if results[0].FinalValAcc <= 0.3 {
		t.Errorf("distributed val acc = %v", results[0].FinalValAcc)
	}
}

func TestDistributedKFACConsistentAcrossRanks(t *testing.T) {
	train, test := tinyDataset(t)
	results, err := runWorld(2, train, test, WithEpochs(2), WithBatchPerRank(8),
		WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FinalValAcc != results[1].FinalValAcc {
		t.Errorf("K-FAC ranks disagree: %v vs %v",
			results[0].FinalValAcc, results[1].FinalValAcc)
	}
}

func TestDistributedKFACLayerWise(t *testing.T) {
	train, test := tinyDataset(t)
	results, err := runWorld(3, train, test, WithEpochs(1), WithBatchPerRank(8),
		WithKFACOptions(kfac.Options{
			Strategy: kfac.LayerWise, FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FinalValAcc != results[2].FinalValAcc {
		t.Error("layer-wise ranks disagree")
	}
}

func TestSchedulesApplied(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(2)))
	lr := optim.LRSchedule{BaseLR: 0.05, WarmupEpochs: 1}
	res, err := runRank(net, nil, train, test, WithEpochs(2), WithLRSchedule(lr),
		WithKFACOptions(kfac.Options{FactorUpdateFreq: 1, InvUpdateFreq: 1}),
		WithDampingSchedule(&kfac.ParamSchedule{Initial: 0.01, DecayEpochs: []int{1}, Factor: 0.5}),
		WithFreqSchedule(&kfac.ParamSchedule{Initial: 2, DecayEpochs: []int{1}, Factor: 2})) // grows to 4
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatal("wrong history length")
	}
	// LR schedule honored in history.
	if res.History[0].LR != lr.At(0) || res.History[1].LR != lr.At(1) {
		t.Error("LR schedule not recorded")
	}
}

func TestEpochsToReach(t *testing.T) {
	r := &Result{History: []EpochStats{
		{Epoch: 0, ValAcc: 0.5},
		{Epoch: 1, ValAcc: 0.7},
		{Epoch: 2, ValAcc: 0.9},
	}}
	if got := r.EpochsToReach(0.7); got != 2 {
		t.Errorf("EpochsToReach(0.7) = %d, want 2", got)
	}
	if got := r.EpochsToReach(0.95); got != -1 {
		t.Errorf("EpochsToReach(0.95) = %d, want -1", got)
	}
}

func TestEvaluateSharded(t *testing.T) {
	train, test := tinyDataset(t)
	_ = train
	net := buildTestNet(rand.New(rand.NewSource(3)))
	acc, err := Evaluate(net, nil, test, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy out of range: %v", acc)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(4)))
	if _, err := NewSession(net, nil, train, test); err == nil {
		t.Error("expected error for zero config")
	}
	if _, err := runWorld(0, train, test); err == nil {
		t.Error("expected error for world=0")
	}
}
