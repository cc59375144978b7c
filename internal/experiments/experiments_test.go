package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/testenv"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact of the paper's evaluation must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation-placement", "ablation-fusion", "ablation-clip", "ablation-damping",
		"ablation-updatefreq", "profile", "memory", "ablation-compression",
		"chaos", "autotune",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllSorted(t *testing.T) {
	es := All()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("All() not sorted: %s before %s", es[i-1].ID, es[i].ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

// TestSimulatedExperimentsRun executes every model-based experiment (they
// are fast) and checks for sane output.
func TestSimulatedExperimentsRun(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	for _, id := range []string{
		"table3", "table4", "table5", "table6",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation-placement", "ablation-fusion",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, cfg); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+id) {
				t.Errorf("output missing banner: %q", firstLine(out))
			}
			if len(out) < 100 {
				t.Errorf("suspiciously short output (%d bytes)", len(out))
			}
		})
	}
}

// TestTrainedExperimentsQuick smoke-runs the experiments that really train
// networks, at the smallest scale.
func TestTrainedExperimentsQuick(t *testing.T) {
	if testenv.Short() {
		t.Skip("trained experiments skipped in reduced-iteration mode")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, id := range []string{"table1", "fig4"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, cfg); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "%") {
				t.Error("expected accuracy percentages in output")
			}
		})
	}
}

func TestFig5ReportsCrossing(t *testing.T) {
	e, _ := ByID("fig5")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, Config{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "epochs to 75.9%") {
		t.Error("fig5 should report baseline-crossing epochs")
	}
}

func TestTable4IncludesPaperReference(t *testing.T) {
	e, _ := ByID("table4")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, Config{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper:") {
		t.Error("table4 should print the paper's reference values")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestChaosExperimentQuick smoke-runs the chaos experiment (it trains real
// 2-rank sessions under injected latency) and checks the loss-equality
// guard held at every latency point.
func TestChaosExperimentQuick(t *testing.T) {
	if testenv.Short() {
		t.Skip("chaos experiment trains networks; skipped in reduced-iteration mode")
	}
	e, _ := ByID("chaos")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, Config{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slowdown") || !strings.Contains(out, "identical losses") {
		t.Errorf("unexpected chaos experiment output:\n%s", out)
	}
}

// TestAutotuneExperimentQuick smoke-runs the bandwidth-degradation curve:
// the tuned column must never degrade past the static one (the experiment
// errors internally otherwise) and the capped row must land on a
// compressed level.
func TestAutotuneExperimentQuick(t *testing.T) {
	if testenv.Short() {
		t.Skip("autotune experiment trains networks; skipped in reduced-iteration mode")
	}
	e, _ := ByID("autotune")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, Config{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tuned ms/step") || !strings.Contains(out, "shape check") {
		t.Errorf("unexpected autotune experiment output:\n%s", out)
	}
	// The 2 MB/s row sits below the float16 band edge (4 MB/s), so the
	// final decision must name a compressed level.
	if !strings.Contains(out, "float16") && !strings.Contains(out, "topk10") {
		t.Errorf("capped row did not land on a compressed level:\n%s", out)
	}
}
