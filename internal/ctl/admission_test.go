package ctl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kfac"
	"repro/internal/simulate"
)

// tinySpec returns a valid 2-worker MLP job; tests mutate it.
func tinySpec() *JobSpec {
	return &JobSpec{
		Name:  "tiny",
		User:  "alice",
		Model: ModelSpec{Kind: "mlp", Dims: []int{16, 8, 4}, Classes: 4},
		Data: DataSpec{
			Train: 32, Test: 8, Classes: 4, Channels: 1, Size: 4, Seed: 7,
		},
		World: 2, Epochs: 2, BatchPerRank: 4, LR: 0.05,
	}
}

func TestValidateCatchesInconsistentSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"unknown model kind", func(s *JobSpec) { s.Model.Kind = "transformer" }},
		{"class mismatch", func(s *JobSpec) { s.Model.Classes = 10 }},
		{"mlp input dim mismatch", func(s *JobSpec) { s.Model.Dims = []int{12, 8, 4} }},
		{"zero world", func(s *JobSpec) { s.World = 0 }},
		{"min_world above world", func(s *JobSpec) { s.MinWorld = 5 }},
		{"no epochs", func(s *JobSpec) { s.Epochs = 0 }},
		{"negative lr", func(s *JobSpec) { s.LR = -1 }},
		{"hybrid without frac", func(s *JobSpec) { s.KFAC = &KFACSpec{DistMode: "hybrid"} }},
		{"frac without hybrid", func(s *JobSpec) {
			s.KFAC = &KFACSpec{DistMode: "memopt", GradWorkerFrac: 0.5}
		}},
		{"unknown compression", func(s *JobSpec) { s.KFAC = &KFACSpec{Compression: "qsgd"} }},
		{"topk without fraction", func(s *JobSpec) { s.KFAC = &KFACSpec{Compression: "topk"} }},
		{"topk fraction above 1", func(s *JobSpec) {
			s.KFAC = &KFACSpec{Compression: "topk", TopKFraction: 1.5}
		}},
		{"fraction without topk", func(s *JobSpec) {
			s.KFAC = &KFACSpec{Compression: "float16", TopKFraction: 0.1}
		}},
		{"no_error_feedback without codec", func(s *JobSpec) {
			s.KFAC = &KFACSpec{NoErrorFeedback: true}
		}},
		{"autotune_interval without autotune", func(s *JobSpec) {
			s.KFAC = &KFACSpec{AutotuneInterval: 2}
		}},
		{"chaos rank outside world", func(s *JobSpec) {
			s.Chaos = &ChaosSpec{KillRank: 2, KillAtEpoch: 0}
		}},
		{"chaos on 1-rank world", func(s *JobSpec) {
			s.World, s.MinWorld = 1, 1
			s.Chaos = &ChaosSpec{KillRank: 0, KillAtEpoch: 0}
		}},
	}
	for _, c := range cases {
		s := tinySpec()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

// TestKFACSpecCompressionResolves pins the wire-name → Options mapping of
// the compression and autotune knobs.
func TestKFACSpecCompressionResolves(t *testing.T) {
	o, err := KFACSpec{Compression: "topk", TopKFraction: 0.1, Autotune: true, AutotuneInterval: 3}.options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Compression == nil || o.Compression.Name() != "topk" {
		t.Errorf("topk spec resolved to codec %v", o.Compression)
	}
	if o.Autotune == nil || o.Autotune.Interval != 3 {
		t.Errorf("autotune spec resolved to %+v", o.Autotune)
	}
	o, err = KFACSpec{Compression: "float16", NoErrorFeedback: true}.options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Compression == nil || o.Compression.Name() != "float16" || !o.NoErrorFeedback {
		t.Errorf("float16 bare spec resolved to %v / NoEF=%v", o.Compression, o.NoErrorFeedback)
	}
	o, err = KFACSpec{}.options()
	if err != nil || o.Compression != nil || o.Autotune != nil {
		t.Errorf("empty spec resolved to %v %+v (err %v)", o.Compression, o.Autotune, err)
	}
}

func TestAdmitWorkerQuota(t *testing.T) {
	s := tinySpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Admit(s, Fleet{Workers: 2}); err != nil {
		t.Errorf("2-worker job rejected by 2-worker fleet: %v", err)
	}
	err := Admit(s, Fleet{Workers: 1})
	if err == nil {
		t.Fatal("2-worker job admitted to 1-worker fleet")
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Errorf("rejection is %T, want *AdmissionError", err)
	}
	if !strings.Contains(err.Error(), "wants 2 workers") {
		t.Errorf("rejection %q does not name the quota", err)
	}
}

// The memory check models the actual distribution plan: a COMM-OPT job
// whose decompositions exceed the per-worker budget is rejected with the
// numbers named, while the same model under MEM-OPT (1/world of the
// resident footprint) fits.
func TestAdmitMemoryFootprintFollowsPlan(t *testing.T) {
	s := tinySpec()
	s.Model = ModelSpec{Kind: "mlp", Dims: []int{64, 64, 4}, Classes: 4}
	s.Data.Size = 8 // 1×8×8 = 64, matching the MLP input
	s.World = 4
	s.KFAC = &KFACSpec{DistMode: "commopt"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	refs, err := s.Model.FactorRefs()
	if err != nil {
		t.Fatal(err)
	}
	// Derive a budget between the two modes' worst ranks: MEM-OPT (owner-
	// only residency) fits, COMM-OPT (every factor on every rank) does not.
	worstOf := func(mode kfac.DistMode) int64 {
		plan := kfac.BuildPlan(kfac.RoundRobin, mode, 0, refs, s.World)
		var worst int64
		for _, elems := range plan.DecompElemsPerRank(refs) {
			if b := elems * decompBytesPerElem; b > worst {
				worst = b
			}
		}
		return worst
	}
	memNeed, commNeed := worstOf(kfac.MemOpt), worstOf(kfac.CommOpt)
	if memNeed >= commNeed {
		t.Fatalf("test premise broken: MEM-OPT worst rank %d ≥ COMM-OPT %d", memNeed, commNeed)
	}
	budget := (memNeed + commNeed) / 2

	fleet := Fleet{Workers: 8, MemoryPerWorker: budget}
	err = Admit(s, fleet)
	if err == nil {
		t.Fatal("COMM-OPT job admitted past the memory budget")
	}
	if !strings.Contains(err.Error(), "bytes of decomposition memory") ||
		!strings.Contains(err.Error(), "planner hint: dist_mode=") {
		t.Errorf("rejection %q should name the footprint and carry a planner hint", err)
	}

	// The hint contract: a FitsBudget placement, applied to the spec,
	// passes the same admission check that rejected the original.
	hint, hintErr := PlacementHint(s, fleet, simulate.DefaultTopology())
	if hintErr != nil {
		t.Fatalf("PlacementHint: %v", hintErr)
	}
	if !hint.FitsBudget {
		t.Fatalf("planner found no fitting candidate under budget %d: %+v", budget, hint)
	}
	hinted := *s
	hinted.KFAC = &KFACSpec{DistMode: hint.DistMode, GradWorkerFrac: hint.GradWorkerFrac}
	if err := Admit(&hinted, fleet); err != nil {
		t.Errorf("hinted configuration %+v rejected under the same budget: %v", hint, err)
	}

	memopt := *s
	memopt.KFAC = &KFACSpec{DistMode: "memopt"}
	if err := Admit(&memopt, fleet); err != nil {
		t.Errorf("MEM-OPT variant rejected under the same budget: %v", err)
	}

	// No K-FAC → no decomposition state → no memory check.
	plain := *s
	plain.KFAC = nil
	if err := Admit(&plain, Fleet{Workers: 8, MemoryPerWorker: 1}); err != nil {
		t.Errorf("non-K-FAC job rejected on K-FAC memory: %v", err)
	}
}

func TestAdmitEmptyFleet(t *testing.T) {
	s := tinySpec()
	if err := Admit(s, Fleet{}); err == nil {
		t.Error("job admitted to an empty fleet")
	}
}
