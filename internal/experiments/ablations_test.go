package experiments

import (
	"strings"
	"testing"

	"rsr/internal/obs"
	"rsr/internal/warmup"
)

func TestAblationReuse(t *testing.T) {
	lab := smallLab("twolf")
	cells, err := lab.AblationReuse(90)
	if err != nil {
		t.Fatal(err)
	}
	// MRRL, BLRL, R$BP(20%), S$BP per workload.
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	var sawMRRL, sawBLRL bool
	for _, c := range cells {
		switch {
		case strings.HasPrefix(c.Method, "MRRL"):
			sawMRRL = true
			if c.ProfileElapsed == 0 {
				t.Error("MRRL must report profiling cost")
			}
		case strings.HasPrefix(c.Method, "BLRL"):
			sawBLRL = true
			if c.ProfileElapsed == 0 {
				t.Error("BLRL must report profiling cost")
			}
		default:
			if c.ProfileElapsed != 0 {
				t.Errorf("%s should not report profiling cost", c.Method)
			}
		}
		if c.Estimate <= 0 {
			t.Errorf("%s estimate %f", c.Method, c.Estimate)
		}
	}
	if !sawMRRL || !sawBLRL {
		t.Fatal("missing profiled methods")
	}
	out := RenderAblationReuse(cells)
	if !strings.Contains(out, "MRRL") || !strings.Contains(out, "profile") {
		t.Error("render incomplete")
	}
}

// TestAblationReuseHonoursExecutionPolicy: the MRRL/BLRL arms build their
// method outside any warmup.Spec, so they reach the walker on their own call —
// which must carry the lab's shard count and instruments like every
// engine-run arm. Sharding changes nothing but the clock; the registry hears
// about the windowed methods' warming.
func TestAblationReuseHonoursExecutionPolicy(t *testing.T) {
	seq, err := smallLab("twolf").AblationReuse(90)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallLab("twolf").Config()
	cfg.Shards = 2
	cfg.Metrics = obs.NewRegistry()
	par, err := NewLab(cfg).AblationReuse(90)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		a, b := seq[i].Cell, par[i].Cell
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			t.Errorf("%s: Shards=2 cell differs from sequential:\n%+v\n%+v", a.Method, a, b)
		}
	}
	methods := map[string]bool{}
	for _, m := range cfg.Metrics.Snapshot() {
		if m.Name == "rsr_warmup_warm_ops_total" {
			for _, s := range m.Series {
				methods[s.Labels["method"]] = s.Value > 0
			}
		}
	}
	if !methods["MRRL (90%)"] || !methods["BLRL (90%)"] {
		t.Errorf("windowed arms recorded no warm ops: %v", methods)
	}
}

func TestAblationReuseAccuracy(t *testing.T) {
	// On a warm-up-sensitive workload, profiled warming at the 90th
	// percentile should beat no warm-up decisively.
	lab := smallLab("twolf")
	cells, err := lab.AblationReuse(90)
	if err != nil {
		t.Fatal(err)
	}
	none, err := lab.Run("twolf", warmup.Spec{Kind: warmup.KindNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if strings.HasPrefix(c.Method, "MRRL") || strings.HasPrefix(c.Method, "BLRL") {
			if c.RelErr >= none.RelErr {
				t.Errorf("%s RE %.4f not better than no-warm-up %.4f", c.Method, c.RelErr, none.RelErr)
			}
		}
	}
}

func TestAblationInference(t *testing.T) {
	lab := smallLab("parser")
	cells, err := lab.AblationInference()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	labels := map[string]bool{}
	for _, c := range cells {
		labels[c.Method] = true
	}
	if !labels["RBP"] || !labels["RBP no-infer"] || !labels["SBP"] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestAblationBusContention(t *testing.T) {
	lab := smallLab("ammp")
	rows, err := lab.AblationBusContention()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.IPCUncontended < r.IPCContended {
		t.Fatalf("removing contention should not slow the machine: %.4f vs %.4f",
			r.IPCUncontended, r.IPCContended)
	}
	if r.Inflation <= 0 {
		t.Fatalf("memory-bound ammp should speed up without contention (inflation %.4f)", r.Inflation)
	}
	out := RenderBusAblation(rows)
	if !strings.Contains(out, "ammp") {
		t.Error("render incomplete")
	}
}

func TestAblationPrefetch(t *testing.T) {
	lab := smallLab("ammp")
	rows, err := lab.AblationPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Streaming ammp must benefit from a sequential prefetcher.
	if rows[0].Speedup <= 1.0 {
		t.Fatalf("ammp prefetch speedup = %.3f, want > 1", rows[0].Speedup)
	}
}
