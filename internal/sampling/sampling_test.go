package sampling

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/stats"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

func TestPositionsProperties(t *testing.T) {
	reg := Regimen{ClusterSize: 1000, NumClusters: 20}
	total := uint64(1_000_000)
	starts, err := Positions(total, reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 20 {
		t.Fatalf("got %d starts", len(starts))
	}
	for i, s := range starts {
		if s+reg.ClusterSize > total {
			t.Fatalf("cluster %d overruns workload", i)
		}
		if i > 0 && starts[i-1]+reg.ClusterSize > s {
			t.Fatalf("clusters %d and %d overlap", i-1, i)
		}
	}
}

func TestPositionsDeterministicBySeed(t *testing.T) {
	reg := Regimen{ClusterSize: 500, NumClusters: 10}
	a, _ := Positions(100000, reg, 7)
	b, _ := Positions(100000, reg, 7)
	c, _ := Positions(100000, reg, 8)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed must give same positions")
	}
	if !diff {
		t.Fatal("different seeds should give different positions")
	}
}

func TestPositionsValidation(t *testing.T) {
	cases := []struct {
		total uint64
		reg   Regimen
	}{
		{1000, Regimen{ClusterSize: 0, NumClusters: 5}},
		{1000, Regimen{ClusterSize: 100, NumClusters: 0}},
		{1000, Regimen{ClusterSize: 600, NumClusters: 2}},
	}
	for i, c := range cases {
		if _, err := Positions(c.total, c.reg, 1); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func testRun(t *testing.T, spec warmup.Spec) *RunResult {
	t.Helper()
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSampled(w.Build(), DefaultMachine(),
		Regimen{ClusterSize: 1000, NumClusters: 10}, 500_000, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSampledBasics(t *testing.T) {
	res := testRun(t, warmup.Spec{Kind: warmup.KindNone})
	if len(res.Clusters) != 10 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if res.HotInstructions != 10*1000 {
		t.Fatalf("hot instructions = %d", res.HotInstructions)
	}
	for i, c := range res.Clusters {
		if ipc := c.Result.IPC(); ipc <= 0 || ipc > 4 {
			t.Fatalf("cluster %d IPC = %f out of range", i, ipc)
		}
	}
}

func TestRunSampledDeterministic(t *testing.T) {
	a := testRun(t, warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
	b := testRun(t, warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
	for i := range a.Clusters {
		if a.Clusters[i].Result != b.Clusters[i].Result {
			t.Fatalf("cluster %d differs between identical runs", i)
		}
	}
	if a.Work != b.Work {
		t.Fatal("work counters differ between identical runs")
	}
}

func TestWarmupReducesError(t *testing.T) {
	// End-to-end: SMARTS warm-up must estimate the true IPC better than no
	// warm-up on a warm-up-sensitive workload, and RSR must land near
	// SMARTS. This is the paper's central claim in miniature.
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(500_000)
	full, err := RunFull(w.Build(), DefaultMachine(), total)
	if err != nil {
		t.Fatal(err)
	}
	trueIPC := full.Result.IPC()

	run := func(spec warmup.Spec) float64 {
		res, err := RunSampled(w.Build(), DefaultMachine(),
			Regimen{ClusterSize: 1000, NumClusters: 20}, total, 42, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPCEstimate()
	}
	noneIPC := run(warmup.Spec{Kind: warmup.KindNone})
	smartsIPC := run(warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
	rsrIPC := run(warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true})

	errNone := stats.RelErr(noneIPC, trueIPC)
	errSmarts := stats.RelErr(smartsIPC, trueIPC)
	errRSR := stats.RelErr(rsrIPC, trueIPC)
	t.Logf("true=%.4f none=%.4f (%.2f%%) smarts=%.4f (%.2f%%) rsr=%.4f (%.2f%%)",
		trueIPC, noneIPC, 100*errNone, smartsIPC, 100*errSmarts, rsrIPC, 100*errRSR)

	if errSmarts >= errNone {
		t.Fatalf("SMARTS error %.4f not better than no-warm-up %.4f", errSmarts, errNone)
	}
	if errRSR > errNone {
		t.Fatalf("RSR error %.4f worse than no-warm-up %.4f", errRSR, errNone)
	}
	if errRSR > errSmarts+0.05 {
		t.Fatalf("RSR error %.4f not close to SMARTS %.4f", errRSR, errSmarts)
	}
}

func TestReverseLogsLessWorkThanSMARTSWarmOps(t *testing.T) {
	smarts := testRun(t, warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
	rsr := testRun(t, warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true})
	if smarts.Work.WarmOps == 0 {
		t.Fatal("SMARTS should perform warm operations")
	}
	if rsr.Work.WarmOps != 0 {
		t.Fatal("RSR performs no functional warm operations")
	}
	if rsr.Work.ReconApplied >= smarts.Work.WarmOps {
		t.Fatalf("RSR applied %d reconstructions, not less than SMARTS %d warm ops",
			rsr.Work.ReconApplied, smarts.Work.WarmOps)
	}
}

func TestRunFull(t *testing.T) {
	w, _ := workload.ByName("parser")
	res, err := RunFull(w.Build(), DefaultMachine(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Instructions != 200_000 {
		t.Fatalf("instructions = %d", res.Result.Instructions)
	}
	if ipc := res.Result.IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %f", ipc)
	}
}

// TestRunFullReportsFault holds the hot-phase source to its fault contract: a
// program that jumps out of its code segment ends the run with an error
// wrapping the functional simulator's fault, and no partial result.
func TestRunFullReportsFault(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(1, 0x10)
	b.Jr(1)
	p := b.MustBuild()
	_, fault := funcsim.New(p).RunBatch(make([]trace.DynInst, 8))
	if fault == nil {
		t.Fatal("the program must fault")
	}

	res, err := RunFull(p, DefaultMachine(), 100)
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != fault.Error() {
		t.Fatalf("RunFull error = %v, want one wrapping %q", err, fault)
	}
	if res != (FullResult{}) {
		t.Fatalf("a faulted run returned %+v, want the zero FullResult", res)
	}
}

func TestRunSampledOptsWarmupCappedBySkip(t *testing.T) {
	// A warm-up window is capped by the skip it covers. Clusters that fill
	// their strata leave no skip at all, so every window is empty: the run
	// must still measure every cluster and execute nothing cold.
	w, _ := workload.ByName("parser")
	reg := Regimen{ClusterSize: 20_000, NumClusters: 5}
	res, err := RunSampled(w.Build(), DefaultMachine(), reg, 100_000, 1,
		warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 5 || res.HotInstructions != 100_000 || res.FuncInstructions != res.HotInstructions {
		t.Fatalf("%d clusters, %d hot and %d functional instructions; want 5, 100000 and no cold ones",
			len(res.Clusters), res.HotInstructions, res.FuncInstructions)
	}
}

// TestRunSampledFreshStatePerCall asserts the package's concurrency
// contract: every run builds a fresh Hierarchy/Unit/funcsim, so concurrent
// runs of the same job share no mutable state and reproduce the sequential
// result exactly. Run under -race (see the Makefile verify target) this
// also proves the absence of data races between runs.
func TestRunSampledFreshStatePerCall(t *testing.T) {
	w, _ := workload.ByName("twolf")
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true}
	const total = 400_000

	want, err := RunSampled(p, DefaultMachine(), reg, total, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0

	const runs = 4
	results := make([]*RunResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The Program is shared read-only across the goroutines; all
			// mutable simulation state must be per-call.
			results[i], errs[i] = RunSampled(p, DefaultMachine(), reg, total, 1, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		results[i].Elapsed = 0
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent run %d diverged from the sequential result", i)
		}
	}
}

// TestRunFullFreshStatePerCall is the same contract for full detailed runs.
func TestRunFullFreshStatePerCall(t *testing.T) {
	w, _ := workload.ByName("parser")
	p := w.Build()
	want, err := RunFull(p, DefaultMachine(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	results := make([]FullResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunFull(p, DefaultMachine(), 200_000)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Result != want.Result {
			t.Fatalf("concurrent full run %d diverged: %+v vs %+v", i, results[i].Result, want.Result)
		}
	}
}

// TestRunSampledCancel covers Options.Cancel: a closed channel aborts the
// run with ErrCanceled at the next cluster boundary, and a never-closed
// channel leaves the result untouched.
func TestRunSampledCancel(t *testing.T) {
	w, _ := workload.ByName("twolf")
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	spec := warmup.Spec{Kind: warmup.KindNone}

	closed := make(chan struct{})
	close(closed)
	if _, err := RunSampledOpts(p, DefaultMachine(), reg, 400_000, 1, spec,
		Options{Cancel: closed}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := RunFullOpts(p, DefaultMachine(), 200_000, Options{Cancel: closed}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("full err = %v, want ErrCanceled", err)
	}

	open := make(chan struct{})
	got, err := RunSampledOpts(p, DefaultMachine(), reg, 400_000, 1, spec, Options{Cancel: open})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSampled(p, DefaultMachine(), reg, 400_000, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cancelable run with open channel diverged from plain run")
	}
}
