package rsr

import (
	"os/exec"
	"strings"
	"testing"
)

// TestPaperStackImportsNoFabric keeps the reproduction runnable with the
// fabric deleted: the twelve packages that are the paper's stack — ISA to
// sampling — may not depend, directly or through anything they import, on the
// engine, the coordinator, the content-addressed store or the fault injector.
func TestPaperStackImportsNoFabric(t *testing.T) {
	args := []string{"list", "-deps"}
	for _, name := range strings.Fields("isa prog workload funcsim mem bpred ooo trace core warmup sampling stats") {
		args = append(args, "./internal/"+name)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "rsr/internal/engine", "rsr/internal/cluster", "rsr/internal/cas", "rsr/internal/fault":
			t.Errorf("the paper's stack depends on %s; go list -deps ./internal/<package> finds through which one", dep)
		}
	}
}
