package experiments

import (
	"strings"
	"testing"
)

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
