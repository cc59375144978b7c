package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// workload is one closed-loop training configuration: a single trainer per
// rank, every rank in this process. See README.md for why each exists.
type workload struct {
	name  string
	world int
	batch int // per rank
	// Model: models.BuildCIFARResNet(blocks, width).
	blocks, width int
	// Data: data.CIFARLike at imgSize pixels with trainN/testN examples.
	imgSize, trainN, testN int
	// K-FAC update intervals, passed explicitly so the traced run can tell
	// which kind of update each Preconditioner.Step performs.
	factorFreq, invFreq int
	damping             float64
	lr                  optim.LRSchedule
	epochs              int

	// Time-to-accuracy workloads: the validation accuracy both optimizers
	// train to, and the task seed that fixes data, initial weights and data
	// order (the target and budget hold for this task only).
	target   float64
	taskSeed int64

	// Throughput workloads: warm-up steps that end set-up, the step period
	// the timed window is a whole multiple of (the K-FAC update interval
	// that repeats), and the steps after warm-up that make the fixed
	// training target timed for both optimizers.
	warmup, period, targetSteps int
}

var workloads = []*workload{
	{
		// The paper's headline: time to a fixed validation accuracy, K-FAC
		// against SGD; the SGD half bypasses kfac and linalg entirely.
		name:  "cifar_ttt_w1",
		world: 1, batch: 32, blocks: 1, width: 8,
		imgSize: 16, trainN: 1024, testN: 384,
		factorFreq: 1, invFreq: 10, damping: 1e-3,
		lr:     optim.LRSchedule{BaseLR: 0.05, WarmupEpochs: 1, Milestones: []int{8 * 2 / 3, 8 * 5 / 6}, Factor: 0.1},
		epochs: 8, target: 0.55, taskSeed: 42,
	},
	{
		// The amortized regime: most steps precondition with stale
		// decompositions, the zero-allocation Step path.
		name:  "resnet_stale_w1",
		world: 1, batch: 32, blocks: 2, width: 16,
		imgSize: 16, trainN: 2048, testN: 256,
		factorFreq: 10, invFreq: 100, damping: 1e-3,
		lr:     optim.LRSchedule{BaseLR: 0.05},
		epochs: 1, warmup: 1, period: 10, targetSteps: 10,
	},
	{
		// The only workload where comm works: gradient and factor
		// allreduce and distributed decompositions over loopback TCP.
		name:  "resnet_tcp_w2",
		world: 2, batch: 16, blocks: 2, width: 16,
		imgSize: 16, trainN: 2048, testN: 256,
		factorFreq: 1, invFreq: 10, damping: 1e-3,
		lr:     optim.LRSchedule{BaseLR: 0.05},
		epochs: 1, warmup: 1, period: 10, targetSteps: 10,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// runConfig carries the command-line settings of one run.
type runConfig struct {
	seed     int64
	window   time.Duration
	traceDir string
}

// timeToAccuracy reports whether the workload trains to a validation
// accuracy rather than for a timed window.
func (w *workload) timeToAccuracy() bool { return w.target > 0 }

// inputSeed is the seed the workload's data, initial weights and data
// order derive from.
func (w *workload) inputSeed(cfg runConfig) int64 {
	if w.taskSeed != 0 {
		return w.taskSeed
	}
	return cfg.seed
}

// netSeed is the seed of the initial weights: trainer.RunSessionsOn builds
// every rank's replica from the fixed seed 12345, and the world-1 runs
// build from the input seed.
func (w *workload) netSeed(cfg runConfig) int64 {
	if w.world > 1 {
		return 12345
	}
	return w.inputSeed(cfg)
}

func (w *workload) data(cfg runConfig) (train, test *data.Dataset) {
	dc := data.CIFARLike(w.inputSeed(cfg))
	dc.Size, dc.Train, dc.Test = w.imgSize, w.trainN, w.testN
	return data.GenerateSynthetic(dc)
}

func (w *workload) newNet(rng *rand.Rand) *nn.Sequential {
	return models.BuildCIFARResNet(w.blocks, w.width, 3, 10, rng)
}

func (w *workload) kfacOptions() kfac.Options {
	return kfac.Build(kfac.WithDamping(w.damping),
		kfac.WithFactorUpdateFreq(w.factorFreq), kfac.WithInvUpdateFreq(w.invFreq))
}

// stepKind names the update a Preconditioner.Step at zero-based iteration
// iter performs under the workload's intervals.
func (w *workload) stepKind(iter int) string {
	switch {
	case iter%w.invFreq == 0:
		return "eig"
	case iter%w.factorFreq == 0:
		return "factor"
	}
	return "stale"
}

func (w *workload) sessionOptions(cfg runConfig, withKFAC bool) []trainer.SessionOption {
	opts := []trainer.SessionOption{
		trainer.WithEpochs(w.epochs), trainer.WithBatchPerRank(w.batch),
		trainer.WithLRSchedule(w.lr), trainer.WithMomentum(0.9),
		trainer.WithSeed(w.inputSeed(cfg)),
	}
	if withKFAC {
		opts = append(opts, trainer.WithKFACOptions(w.kfacOptions()))
	}
	return opts
}

// stepLog is what one rank's OnStep hook records.
type stepLog struct {
	loss []float64
	ms   []float64 // StepInfo.StepDuration
	at   []instant // when the hook ran
}

// sessionRun is the outcome of one untraced training run.
type sessionRun struct {
	start instant
	end   instant
	ranks []stepLog
	nets  []*nn.Sequential
	err   error
}

func (r *sessionRun) losses() [][]float64 {
	out := make([][]float64, len(r.ranks))
	for i, l := range r.ranks {
		out[i] = l.loss
	}
	return out
}

// stepsBetween returns the pooled wall-clock step durations of iterations
// (from, to] (1-based) over every rank.
func (r *sessionRun) stepsBetween(from, to int) []float64 {
	var out []float64
	for _, l := range r.ranks {
		out = append(out, l.ms[from:min(to, len(l.ms))]...)
	}
	return out
}

// unstolenStepsBetween is stepsBetween with each step's stolen share
// removed, taken over the interval from the previous step hook (or the
// run's start) to the step's own.
func (r *sessionRun) unstolenStepsBetween(from, to int) []float64 {
	var out []float64
	for _, l := range r.ranks {
		for i := from; i < min(to, len(l.ms)); i++ {
			prev := r.start
			if i > 0 {
				prev = l.at[i-1]
			}
			d := time.Duration(l.ms[i] * 1e6)
			out = append(out, float64(unstolenOf(d, prev, l.at[i]))/1e6)
		}
	}
	return out
}

// heapPeak samples, at step boundaries, the live heap the last garbage
// collection found. The heap in use would read higher, but it saws between
// collections by up to a step's allocations (135 MB on resnet_tcp_w2), so
// where a boundary falls on the sawtooth would move its peak by 15%.
var heapPeak = &peakSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}

type peakSampler struct {
	mu     sync.Mutex
	sample []metrics.Sample
	peak   uint64
}

func (p *peakSampler) reset() {
	p.mu.Lock()
	p.peak = 0
	p.mu.Unlock()
}

func (p *peakSampler) observe() {
	p.mu.Lock()
	metrics.Read(p.sample)
	if v := p.sample[0].Value.Uint64(); v > p.peak {
		p.peak = v
	}
	p.mu.Unlock()
}

// runSession trains one fresh model (a replica per rank, over fab when the
// workload has several ranks) through trainer.Session. stop is consulted
// from rank 0's step hook with the 1-based iteration and the hook's instant;
// returning true ends
// the run at the next iteration boundary. The run's context is cancellable
// only when stop is given, so a world-2 Session pays its per-iteration
// cancellation consensus only then.
func runSession(w *workload, cfg runConfig, train, test *data.Dataset, fab *tcpWorld, withKFAC bool,
	extra []trainer.SessionOption, stop func(iter int, at instant) bool) *sessionRun {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if stop != nil {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	run := &sessionRun{ranks: make([]stepLog, w.world), nets: make([]*nn.Sequential, w.world)}
	hook := func(s *trainer.Session, info trainer.StepInfo) error {
		at := now()
		heapPeak.observe()
		r := s.Rank()
		l := &run.ranks[r]
		run.nets[r] = s.Net()
		l.loss = append(l.loss, info.Loss)
		l.ms = append(l.ms, float64(info.StepDuration)/1e6)
		l.at = append(l.at, at)
		if r == 0 && stop != nil && stop(info.Iteration, at) {
			cancel()
		}
		return nil
	}
	opts := append(w.sessionOptions(cfg, withKFAC), extra...)
	opts = append(opts, trainer.OnStep(hook))
	run.start = now()
	if w.world == 1 {
		net := w.newNet(rand.New(rand.NewSource(w.netSeed(cfg))))
		s, err := trainer.NewSession(net, nil, train, test, opts...)
		if err != nil {
			run.err = err
			return run
		}
		_, run.err = s.Run(ctx)
	} else {
		_, run.err = trainer.RunSessionsOn(ctx, fab, w.world, w.newNet, train, test, opts...)
	}
	run.end = now()
	if stop != nil && errors.Is(run.err, context.Canceled) {
		run.err = nil
	}
	return run
}

// newFabric joins a fresh TCP world for multi-rank workloads (nil at
// world 1).
func (w *workload) newFabric() (*tcpWorld, error) {
	if w.world == 1 {
		return nil, nil
	}
	return newTCPWorld(w.world)
}

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median.
const setupRepeats = 3

// setupResult is one set-up of a throughput workload and the run it began.
type setupResult struct {
	dur         time.Duration
	train, test *data.Dataset
	run         *sessionRun
	// windowStart is when a continued run's timed window began.
	windowStart instant
}

// setupAndRun generates the data, joins the mesh and trains a fresh model
// through its warm-up steps, which end set-up. A nil cont stops the run
// there. Otherwise the run continues into a timed window that starts with
// a settled heap, and cont decides, step by step, when it ends.
func setupAndRun(w *workload, cfg runConfig, acct *accounting,
	cont func(iter int, at, windowStart instant) bool) (*setupResult, error) {
	t0 := now()
	sr := &setupResult{}
	sr.train, sr.test = w.data(cfg)
	fab, err := w.newFabric()
	if err != nil {
		return nil, err
	}
	if fab != nil {
		defer fab.Close()
	}
	var setupEnd instant
	sr.run = runSession(w, cfg, sr.train, sr.test, fab, true, nil, func(iter int, at instant) bool {
		switch {
		case iter < w.warmup:
			return false
		case iter > w.warmup:
			return cont(iter, at, sr.windowStart)
		}
		setupEnd = at
		if cont == nil {
			return true
		}
		sr.windowStart = settle()
		return false
	})
	acct.addRun(sr.run.losses(), sr.run.err)
	if sr.run.err != nil {
		return nil, fmt.Errorf("warm-up: %w", sr.run.err)
	}
	if setupEnd.t.IsZero() {
		return nil, fmt.Errorf("warm-up ended after %d steps", len(sr.run.ranks[0].loss))
	}
	sr.dur = setupEnd.unstolen(t0)
	return sr, nil
}

// cifarSetup generates the time-to-accuracy task's data and warms the
// process up on a throwaway model (a decomposition and a factor update),
// so the timed runs start with caches and pools settled.
func cifarSetup(w *workload, cfg runConfig, acct *accounting) (time.Duration, *data.Dataset, *data.Dataset, error) {
	t0 := now()
	train, test := w.data(cfg)
	warm := runSession(w, cfg, train, test, nil, true, nil, func(iter int, _ instant) bool { return iter >= 2 })
	acct.addRun(warm.losses(), warm.err)
	if warm.err != nil {
		return 0, nil, nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	return now().unstolen(t0), train, test, nil
}

// ttaRun trains to the workload's target accuracy and records when the
// first epoch reaching it ended.
type ttaRun struct {
	*sessionRun
	reachedAt instant
	epochs    int // 1-based epoch that reached the target, -1 if none
	bestAcc   float64
}

// targetEnd is the end of the epoch that reached the target, or the end of
// the run when none did.
func (t *ttaRun) targetEnd() instant {
	if t.epochs < 0 {
		return t.end
	}
	return t.reachedAt
}

func runToTarget(w *workload, cfg runConfig, train, test *data.Dataset, withKFAC bool) *ttaRun {
	t := &ttaRun{epochs: -1}
	extra := []trainer.SessionOption{
		trainer.WithStopAtValAcc(w.target),
		trainer.OnEpochEnd(func(s *trainer.Session, e trainer.EpochStats) error {
			if e.ValAcc >= w.target && t.epochs < 0 {
				t.reachedAt, t.epochs = now(), e.Epoch+1
			}
			t.bestAcc = math.Max(t.bestAcc, e.ValAcc)
			return nil
		}),
	}
	if withKFAC {
		settle()
	} else {
		runtime.GC()
	}
	t.sessionRun = runSession(w, cfg, train, test, nil, withKFAC, extra, nil)
	return t
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w *workload, cfg runConfig, acct *accounting) (*report, error) {
	if w.timeToAccuracy() {
		return cifarEndToEnd(w, cfg, acct)
	}
	return throughputEndToEnd(w, cfg, acct)
}

func cifarEndToEnd(w *workload, cfg runConfig, acct *accounting) (*report, error) {
	rep := newReport()
	var setups []float64
	var train, test *data.Dataset
	for i := 0; i < setupRepeats; i++ {
		d, tr, te, err := cifarSetup(w, cfg, acct)
		if err != nil {
			return nil, err
		}
		setups, train, test = append(setups, d.Seconds()), tr, te
	}
	k := runToTarget(w, cfg, train, test, true)
	acct.addRun(k.losses(), k.err)
	sgd := runToTarget(w, cfg, train, test, false)
	acct.addRun(sgd.losses(), sgd.err)
	for _, r := range []*ttaRun{k, sgd} {
		if r.err != nil {
			return nil, r.err
		}
	}
	reached := k.epochs > 0 && sgd.epochs > 0
	rep.check("both_reach_target", reached,
		"target val-acc %.2f within %d epochs: kfac epoch %d (best %.4f), sgd epoch %d (best %.4f)",
		w.target, w.epochs, k.epochs, k.bestAcc, sgd.epochs, sgd.bestAcc)
	if !reached {
		acct.attempted++
		acct.failed++
	}
	rep.check("losses_finite", finite(k.ranks[0].loss) && finite(sgd.ranks[0].loss),
		"%d kfac + %d sgd step losses", len(k.ranks[0].loss), len(sgd.ranks[0].loss))

	// Time from Session.Run's start to the target, stolen share removed.
	kTime, sgdTime := k.targetEnd().unstolen(k.start), sgd.targetEnd().unstolen(sgd.start)
	steps := k.unstolenStepsBetween(0, len(k.ranks[0].ms))
	rep.set("time_to_target_s", kTime.Seconds(), "s")
	rep.set("sgd_time_to_target_s", sgdTime.Seconds(), "s")
	rep.set("epochs_to_target", float64(k.epochs), "epochs")
	rep.set("step_ms_p50", percentile(steps, 50), "ms")
	rep.set("step_ms_p75", percentile(steps, 75), "ms")
	rep.set("samples_per_s", float64(len(steps)*w.batch)/kTime.Seconds(), "1/s")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_heap_mb", float64(heapPeak.peak)/1e6, "MB")
	rep.note("kfac/sgd time-to-target ratio %.3f (kfac %.2f s over %d epochs; sgd %.2f s over %d epochs)",
		kTime.Seconds()/sgdTime.Seconds(), kTime.Seconds(), k.epochs, sgdTime.Seconds(), sgd.epochs)
	rep.note("step samples: %d kfac steps; --seconds does not apply to a time-to-accuracy workload", len(steps))
	rep.note("wall clock: kfac %.3f s, sgd %.3f s, step p50 %.2f ms; stolen share %.1f%% and %.1f%%",
		k.targetEnd().wall(k.start).Seconds(), sgd.targetEnd().wall(sgd.start).Seconds(),
		median(k.stepsBetween(0, len(k.ranks[0].ms))),
		100*k.targetEnd().cpu.share(k.start.cpu), 100*sgd.targetEnd().cpu.share(sgd.start.cpu))
	return rep, nil
}

// settle collects garbage and restarts the heap peak, so every timed run
// starts from the same heap state; it returns when it finished.
func settle() instant {
	runtime.GC()
	heapPeak.reset()
	return now()
}

// windowDone decides, at rank 0's step hook, whether a throughput run's
// timed window is complete: the fixed target is covered, the window lasts
// at least cfg.window, and it spans whole update periods.
func (w *workload) windowDone(cfg runConfig) func(iter int, at, windowStart instant) bool {
	return func(iter int, at, windowStart instant) bool {
		n := iter - w.warmup
		return n >= w.targetSteps && n%w.period == 0 && at.wall(windowStart) >= cfg.window
	}
}

func throughputEndToEnd(w *workload, cfg runConfig, acct *accounting) (*report, error) {
	rep := newReport()
	var setups []float64
	var final *setupResult
	for i := 0; i < setupRepeats; i++ {
		var cont func(int, instant, instant) bool
		if i == setupRepeats-1 {
			cont = w.windowDone(cfg)
		}
		sr, err := setupAndRun(w, cfg, acct, cont)
		if err != nil {
			return nil, err
		}
		setups, final = append(setups, sr.dur.Seconds()), sr
	}
	run, W, target := final.run, w.warmup, w.targetSteps
	n := len(run.ranks[0].loss)
	if n < W+target {
		return nil, fmt.Errorf("timed window ended after %d steps", n)
	}
	at := run.ranks[0].at
	window := at[n-1].unstolen(final.windowStart)
	kfacTarget := at[W+target-1].unstolen(final.windowStart)
	steps := run.unstolenStepsBetween(W, n)

	// SGD trains the same fixed target on a fresh model after its own
	// warm-up.
	fab, err := w.newFabric()
	if err != nil {
		return nil, err
	}
	var sgdStart instant
	sgd := runSession(w, cfg, final.train, final.test, fab, false, nil, func(iter int, _ instant) bool {
		if iter == W {
			runtime.GC()
			sgdStart = now()
		}
		return iter >= W+target
	})
	if fab != nil {
		fab.Close()
	}
	acct.addRun(sgd.losses(), sgd.err)
	if sgd.err != nil {
		return nil, fmt.Errorf("sgd: %w", sgd.err)
	}
	if len(sgd.ranks[0].at) < W+target {
		return nil, fmt.Errorf("sgd run ended after %d steps", len(sgd.ranks[0].at))
	}
	sgdTarget := sgd.ranks[0].at[W+target-1].unstolen(sgdStart)

	allFinite := true
	for _, l := range append(run.losses(), sgd.losses()...) {
		allFinite = allFinite && finite(l)
	}
	rep.check("losses_finite", allFinite, "%d kfac + %d sgd steps per rank", n, len(sgd.ranks[0].loss))
	if w.world > 1 {
		rep.check("ranks_identical", sameParams(run.nets) && sameParams(sgd.nets),
			"parameters of all %d ranks bitwise equal after the kfac and the sgd run", w.world)
	}

	samples := w.batch * w.world
	rep.set("time_to_target_s", kfacTarget.Seconds(), "s")
	rep.set("sgd_time_to_target_s", sgdTarget.Seconds(), "s")
	rep.set("epochs_to_target", float64(target*samples)/float64(w.trainN), "epochs")
	rep.set("step_ms_p50", percentile(steps, 50), "ms")
	rep.set("step_ms_p75", percentile(steps, 75), "ms")
	rep.set("samples_per_s", float64((n-W)*samples)/window.Seconds(), "1/s")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_heap_mb", float64(heapPeak.peak)/1e6, "MB")
	sgdSteps := sgd.unstolenStepsBetween(W, W+target)
	rep.note("sgd target steps: p25 %.1f p50 %.1f p75 %.1f max %.1f ms",
		percentile(sgdSteps, 25), percentile(sgdSteps, 50), percentile(sgdSteps, 75), percentile(sgdSteps, 100))
	rep.note("kfac window steps: p25 %.1f p50 %.1f p75 %.1f max %.1f ms",
		percentile(steps, 25), percentile(steps, 50), percentile(steps, 75), percentile(steps, 100))
	rep.note("target: %d steps (%d samples) after %d warm-up steps; kfac/sgd ratio %.3f",
		target, target*samples, W, kfacTarget.Seconds()/sgdTarget.Seconds())
	rep.note("timed window: %d steps in %.2f s (wall clock %.2f s, stolen share %.1f%%); %d step samples over %d ranks",
		n-W, window.Seconds(), at[n-1].wall(final.windowStart).Seconds(),
		100*at[n-1].cpu.share(final.windowStart.cpu), len(steps), w.world)
	rep.note("wall clock: kfac target %.3f s, sgd target %.3f s, step p50 %.2f ms",
		at[W+target-1].wall(final.windowStart).Seconds(), sgd.ranks[0].at[W+target-1].wall(sgdStart).Seconds(),
		median(run.stepsBetween(W, n)))
	return rep, nil
}

// sameParams reports whether every replica's parameters equal rank 0's bit
// for bit.
func sameParams(nets []*nn.Sequential) bool {
	if len(nets) == 0 || nets[0] == nil {
		return false
	}
	ref := nets[0].Params()
	for _, n := range nets[1:] {
		if n == nil {
			return false
		}
		ps := n.Params()
		if len(ps) != len(ref) {
			return false
		}
		for i, p := range ps {
			for j, v := range p.Value.Data {
				if math.Float64bits(v) != math.Float64bits(ref[i].Value.Data[j]) {
					return false
				}
			}
		}
	}
	return true
}
