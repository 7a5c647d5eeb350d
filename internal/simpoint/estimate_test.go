package simpoint_test

import (
	"testing"

	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// The selection this package makes is only as good as the estimate it leads
// to, and estimating is the regimen package's job (its SimPoint strategy:
// Profile + Pick here, then the shared runner), so these tests sit in the
// external test package and drive the strategy.

// estimate runs the SimPoint strategy on twolf and returns the outcome with
// the true IPC it is scored against.
func estimate(t *testing.T, total, interval uint64, warm warmup.Spec) (*regimen.Outcome, float64) {
	t.Helper()
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	m := sampling.DefaultMachine()
	full, err := sampling.RunFull(w.Build(), m, total)
	if err != nil {
		t.Fatal(err)
	}
	out, err := regimen.SimPoint{}.Run(regimen.Params{
		Program: w.Build(),
		Machine: m,
		Regimen: sampling.Regimen{ClusterSize: interval, NumClusters: 10},
		Total:   total,
		Seed:    3,
		Warmup:  warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, full.Result.IPC()
}

var smarts = warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}

func TestEstimateReasonable(t *testing.T) {
	const total = 400_000
	out, truth := estimate(t, total, 10_000, smarts)
	ipc := out.Estimate.IPC
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %f", ipc)
	}
	re := stats.RelErr(ipc, truth)
	t.Logf("simpoint IPC %.4f vs true %.4f (RE %.2f%%), %d points", ipc, truth, 100*re, len(out.Clusters))
	if re > 0.5 {
		t.Fatalf("relative error %.2f implausibly large", re)
	}
	if out.HotInstructions == 0 || out.HotInstructions > total {
		t.Fatalf("hot instructions = %d", out.HotInstructions)
	}
}

func TestEstimateWarmupVariantsDiffer(t *testing.T) {
	// Plain SimPoint and SimPoint+SMARTS must both run; with small
	// intervals the warmed variant should not be less accurate by a wide
	// margin (the paper's Figure 9 story at 50K).
	plain, truth := estimate(t, 300_000, 3_000, warmup.Spec{})
	warmed, _ := estimate(t, 300_000, 3_000, smarts)
	rePlain := stats.RelErr(plain.Estimate.IPC, truth)
	reWarm := stats.RelErr(warmed.Estimate.IPC, truth)
	t.Logf("plain RE %.3f, warmed RE %.3f", rePlain, reWarm)
	if reWarm > rePlain+0.05 {
		t.Fatalf("warm-up made small-interval SimPoint much worse: %.3f vs %.3f", reWarm, rePlain)
	}
}
