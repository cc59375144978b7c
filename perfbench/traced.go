package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// layerShape is one K-FAC layer's GEMM geometry at the last traced step:
// rows = batch × output positions, in = activation columns (C·kh·kw for a
// convolution), out = output channels or features.
type layerShape struct{ rows, in, out int }

// tracedRun is the outcome of replaying a workload's steps through
// traceRank. It holds every rank's spans and losses, and rank 0's model,
// preconditioner and layer shapes for the kernel probes.
type tracedRun struct {
	tracers []*tracer
	losses  [][]float64
	prec    *kfac.Preconditioner
	shapes  []layerShape
	// allocs and allocBytes are the process's heap allocations during rank
	// 0's step spans (both ranks' steps overlap them at world 2).
	allocs, allocBytes uint64
	comm               commCounts
	steps              int
}

// allocSamples are the cumulative heap allocation counters.
func allocSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
}

// traceRun trains a fresh model for exactly steps optimizer steps (ending
// earlier at the epoch that reaches the target, for a time-to-accuracy
// workload), through the calls trainer.Session.Run makes in the order it
// makes them, with a span around each call. It finishes with an epoch-end
// evaluation when the last step fell mid-epoch, and — when the workload's
// intervals leave no step stale — with staleProbeSteps stale Step calls.
func traceRun(w *workload, cfg runConfig, train, test *data.Dataset, steps int) (*tracedRun, error) {
	fab, err := w.newFabric()
	if err != nil {
		return nil, err
	}
	if fab != nil {
		defer fab.Close()
	}
	runtime.GC()
	origin := time.Now()
	capacity := steps*12 + w.epochs*8 + 4*staleProbeSteps + 16
	t := &tracedRun{losses: make([][]float64, w.world)}
	for r := 0; r < w.world; r++ {
		t.tracers = append(t.tracers, newTracer(origin, r, capacity))
	}
	var before commCounts
	if fab != nil {
		before = fab.counts()
	}
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	errs := make([]error, w.world)
	var wg sync.WaitGroup
	for r := 0; r < w.world; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *comm.Communicator
			if fab != nil {
				c = comm.NewCommunicator(fab.Endpoint(r)).WithContext(abortCtx)
			}
			net := w.newNet(rand.New(rand.NewSource(w.netSeed(cfg))))
			if errs[r] = t.traceRank(w, cfg, r, c, net, train, test, steps); errs[r] != nil {
				abort()
			}
		}()
	}
	wg.Wait()
	if fab != nil {
		t.comm = fab.counts().sub(before)
	}
	for r, err := range errs {
		if err != nil {
			return t, fmt.Errorf("traced rank %d: %w", r, err)
		}
	}
	return t, nil
}

// staleProbeSteps is how many stale Preconditioner.Step calls the traced
// run adds after training when the workload's intervals imply none.
const staleProbeSteps = 5

func (t *tracedRun) traceRank(w *workload, cfg runConfig, rank int, c *comm.Communicator,
	net *nn.Sequential, train, test *data.Dataset, steps int) error {
	tr := t.tracers[rank]
	world, seed := w.world, w.inputSeed(cfg)
	distributed := c != nil && world > 1
	params := net.Params()
	layers := nn.CapturableLayers(net)
	var mem []metrics.Sample
	if rank == 0 {
		mem = allocSamples()
	}

	// Session.Run's preamble.
	nn.SetBufferReuse(net, true)
	defer nn.SetBufferReuse(net, false)
	if distributed {
		sp := tr.begin("comm.broadcast_init", -1)
		for _, p := range params {
			if err := c.Broadcast(p.Value.Data, 0); err != nil {
				return fmt.Errorf("initial broadcast: %w", err)
			}
		}
		tr.end(sp)
	}
	opt := optim.SGD(params, optim.WithLR(w.lr.At(0)), optim.WithMomentum(0.9), optim.WithWeightDecay(0))
	sp := tr.begin("kfac.new", -1)
	prec := kfac.NewFromOptions(net, c, w.kfacOptions())
	tr.end(sp)
	defer prec.Close()
	ce := nn.CrossEntropy{}
	sampler := data.ShardSampler{N: train.Len(), Rank: rank, World: world, Seed: seed}
	// The untraced throughput runs stop through a cancellable context, so
	// their Session pays a cancellation consensus at every iteration
	// boundary of a distributed run; the time-to-accuracy run does not.
	consensus := distributed && !w.timeToAccuracy()
	gradGroupSize := w.kfacOptions().GroupSize

	iter := 0
	for epoch := 0; epoch < w.epochs && iter < steps; epoch++ {
		ep := tr.begin("trainer.epoch", -1)
		lr := w.lr.At(epoch)
		opt.SetLR(lr)
		sp := tr.begin("data.batches", ep)
		batches := data.Batches(train, sampler.EpochIndices(epoch), w.batch)
		tr.end(sp)
		var lossSum, accSum float64
		done := 0
		for _, b := range batches {
			if iter == steps {
				break
			}
			if consensus {
				sp := tr.begin("trainer.cancel_consensus", ep)
				if err := c.AllreduceSum([]float64{0}); err != nil {
					return fmt.Errorf("cancellation consensus: %w", err)
				}
				tr.end(sp)
			}
			tr.step = int32(iter)
			if mem != nil {
				metrics.Read(mem)
			}
			a0, b0 := sampleUint(mem, 0), sampleUint(mem, 1)
			st := tr.begin("trainer.step", ep)

			sp := tr.begin("optim.zero_grad", st)
			opt.ZeroGrad()
			tr.end(sp)
			// Session averages loss and accuracy over the accumulation
			// group; with one micro-batch that leaves both bit-identical.
			sp = tr.begin("nn.forward", st)
			out := net.Forward(b.X, true)
			stepLoss, grad := ce.Loss(out, b.Labels)
			accSum += nn.Accuracy(out, b.Labels)
			tr.end(sp)
			sp = tr.begin("nn.backward", st)
			net.Backward(grad)
			tr.end(sp)
			lossSum += stepLoss

			sp = tr.begin("comm.grad_allreduce", st)
			if distributed {
				ts := prec.Tuning()
				if ts.Tuned || ts.Codec != nil {
					return fmt.Errorf("traced loop replays only the exact gradient exchange")
				}
				fu := comm.NewFuser(c, 0)
				fu.SetGroupSize(gradGroupSize)
				for _, p := range params {
					fu.Add(p.Grad)
				}
				if err := fu.Flush(); err != nil {
					return fmt.Errorf("gradient allreduce: %w", err)
				}
			}
			tr.end(sp)

			sp = tr.begin("kfac.step", st)
			tr.setKind(sp, w.stepKind(prec.StepCount()))
			if err := prec.Step(lr); err != nil {
				return fmt.Errorf("kfac step: %w", err)
			}
			tr.end(sp)
			sp = tr.begin("optim.step", st)
			opt.Step()
			tr.end(sp)
			tr.end(st)
			if mem != nil {
				metrics.Read(mem)
				t.allocs += sampleUint(mem, 0) - a0
				t.allocBytes += sampleUint(mem, 1) - b0
			}
			t.losses[rank] = append(t.losses[rank], stepLoss)
			iter++
			done++
			if rank == 0 && iter == w.warmup && !w.timeToAccuracy() {
				runtime.GC() // where the untraced run settles the heap
			}
		}
		if rank == 0 {
			t.shapes = t.shapes[:0]
			for _, l := range layers {
				if act := l.CapturedActivation(); act != nil {
					t.shapes = append(t.shapes, layerShape{rows: act.Rows(), in: act.Cols(), out: l.OutDim()})
				}
			}
		}

		// Epoch end: rank-averaged training metrics, then validation.
		if distributed {
			sp := tr.begin("trainer.epoch_sync", ep)
			buf := []float64{lossSum / float64(max(done, 1)), accSum / float64(max(done, 1))}
			if err := c.AllreduceMean(buf); err != nil {
				return fmt.Errorf("epoch sync: %w", err)
			}
			tr.end(sp)
		}
		sp = tr.begin("nn.eval", ep)
		va, err := trainer.Evaluate(net, c, test, w.batch, seed)
		tr.end(sp)
		tr.end(ep)
		if err != nil {
			return fmt.Errorf("evaluate: %w", err)
		}
		if w.timeToAccuracy() && va >= w.target {
			break
		}
	}
	if rank == 0 {
		t.prec, t.steps = prec, iter
	}

	if w.factorFreq == 1 {
		// Every traced step updated the factors; time stale steps at the
		// same shapes by raising both intervals past the step count.
		prec.SetFactorUpdateFreq(math.MaxInt32)
		prec.SetInvUpdateFreq(math.MaxInt32)
		root := tr.begin("probe.stale", -1)
		for i := 0; i < staleProbeSteps; i++ {
			sp := tr.begin("kfac.step", root)
			tr.setKind(sp, "stale")
			if err := prec.Step(w.lr.At(0)); err != nil {
				return fmt.Errorf("stale probe step: %w", err)
			}
			tr.end(sp)
		}
		tr.end(root)
	}
	return nil
}

func sampleUint(s []metrics.Sample, i int) uint64 {
	if i >= len(s) || s[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[i].Value.Uint64()
}

// runTraced makes an untraced reference run, replays its steps traced,
// checks the two agree loss for loss, probes the kernels at the workload's
// shapes and reports the per-layer metrics.
func runTraced(w *workload, cfg runConfig, acct *accounting) (*report, error) {
	var ref *sessionRun
	var train, test *data.Dataset
	if w.timeToAccuracy() {
		var err error
		if _, train, test, err = cifarSetup(w, cfg, acct); err != nil {
			return nil, err
		}
		k := runToTarget(w, cfg, train, test, true)
		acct.addRun(k.losses(), k.err)
		ref = k.sessionRun
	} else {
		sr, err := setupAndRun(w, cfg, acct, w.windowDone(cfg))
		if err != nil {
			return nil, err
		}
		ref, train, test = sr.run, sr.train, sr.test
	}
	if ref.err != nil {
		return nil, fmt.Errorf("untraced run: %w", ref.err)
	}
	// The traced run's garbage collector should not mark the untraced
	// models as well.
	ref.nets = nil
	steps := len(ref.ranks[0].loss)
	t, err := traceRun(w, cfg, train, test, steps)
	if t != nil {
		acct.addRun(t.losses, err)
	}
	if err != nil {
		return nil, err
	}

	rep := newReport()
	equal, detail := sameLosses(ref.losses(), t.losses)
	rep.check("traced_loss_equals_untraced", equal, "%s", detail)
	allFinite := true
	for _, l := range t.losses {
		allFinite = allFinite && finite(l)
	}
	rep.check("losses_finite", allFinite, "%d traced steps per rank", t.steps)

	var spans []span
	dropped := 0
	for _, tr := range t.tracers {
		spans = append(spans, tr.spans...)
		dropped += tr.dropped
	}
	rep.check("trace_complete", dropped == 0, "%d spans recorded, %d dropped", len(spans), dropped)
	layerMetrics(rep, w, t, spans, ref)
	if err := probeKernels(rep, t, w, cfg); err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, w, t); err != nil {
		return nil, err
	}
	return rep, nil
}

// sameLosses compares two runs' per-rank step losses bit for bit.
func sameLosses(a, b [][]float64) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("%d vs %d ranks", len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false, fmt.Sprintf("rank %d: %d untraced vs %d traced steps", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if math.Float64bits(a[r][i]) != math.Float64bits(b[r][i]) {
				return false, fmt.Sprintf("rank %d step %d: untraced %v, traced %v", r, i+1, a[r][i], b[r][i])
			}
		}
	}
	return true, fmt.Sprintf("%d ranks × %d steps bitwise equal", len(a), len(a[0]))
}

// layerMetrics derives the per-layer metrics from the spans.
func layerMetrics(rep *report, w *workload, t *tracedRun, spans []span, ref *sessionRun) {
	byName := map[string][]float64{}
	byKind := map[string][]float64{}
	var stepSelf []float64
	self := selfTimes(spans)
	for i, s := range spans {
		ms := float64(s.dur()) / 1e6
		byName[s.Name] = append(byName[s.Name], ms)
		if s.Name == "kfac.step" {
			byKind[s.Kind] = append(byKind[s.Kind], ms)
		}
		if s.Name == "trainer.step" {
			stepSelf = append(stepSelf, float64(self[i])/1e6)
		}
	}
	fwd, bwd := median(byName["nn.forward"]), median(byName["nn.backward"])
	// Forward GEMM FLOPs of every K-FAC layer; the backward pass does two
	// GEMMs of the same size (input gradient and weight gradient).
	var flops float64
	for _, s := range t.shapes {
		flops += 2 * float64(s.rows) * float64(s.in) * float64(s.out)
	}
	rep.set("nn.forward_ms", fwd, "ms")
	rep.set("nn.backward_ms", bwd, "ms")
	rep.set("nn.gflops", 3*flops/((fwd+bwd)/1e3)/1e9, "GFLOP/s")
	rep.set("nn.eval_ms", median(byName["nn.eval"]), "ms")
	rep.set("data.batches_ms", median(byName["data.batches"]), "ms")
	rep.set("kfac.stale_step_ms", median(byKind["stale"]), "ms")
	rep.set("kfac.factor_step_ms", median(byKind["factor"]), "ms")
	rep.set("kfac.eig_step_ms", median(byKind["eig"]), "ms")
	rankSteps := float64(t.steps * w.world)
	rep.set("comm.grad_allreduce_ms", median(byName["comm.grad_allreduce"]), "ms")
	rep.set("comm.send_bytes_per_step", float64(t.comm.sendBytes)/rankSteps, "B")
	rep.set("comm.send_calls_per_step", float64(t.comm.sendCalls)/rankSteps, "count")
	rep.set("comm.recv_wait_ms_per_step", float64(t.comm.recvWaitNs)/1e6/rankSteps, "ms")
	rep.set("optim.step_ms", median(byName["optim.step"]), "ms")
	rep.set("trainer.self_ms", median(stepSelf), "ms")
	rep.set("mem.allocs_per_step", float64(t.allocs)/float64(t.steps), "count")
	rep.set("mem.alloc_bytes_per_step", float64(t.allocBytes)/float64(t.steps), "B")
	untraced := median(ref.stepsBetween(0, t.steps))
	traced := median(byName["trainer.step"])
	rep.set("trace.overhead_pct", (traced/untraced-1)*100, "%")
	rep.note("step p50: untraced %.3f ms, traced %.3f ms over %d steps × %d ranks", untraced, traced, t.steps, w.world)
	rep.note("kfac.step samples: %d stale, %d factor, %d eig (stale from a probe when no step is stale: %v)",
		len(byKind["stale"]), len(byKind["factor"]), len(byKind["eig"]), w.factorFreq == 1)
	rep.note("nn.gflops counts conv/linear GEMMs only, computed as 3 × 2·rows·in·out per layer per step = %.4g FLOP", 3*flops)
}

// writeTrace writes every span as one JSON line under cfg.traceDir.
func writeTrace(cfg runConfig, w *workload, t *tracedRun) error {
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, tr := range t.tracers {
		if err := writeSpans(f, tr.spans); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}
