package sampling

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// normalize clears the only field allowed to differ between two runs of the
// same job: wall-clock time.
func normalize(r *RunResult) *RunResult {
	if r != nil {
		r.Elapsed = 0
	}
	return r
}

// runSampled is RunSampledOpts for a method no Spec builds: the regimen's
// regions walked under the test's own factory.
func runSampled(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, mk func(*mem.Hierarchy, *bpred.Unit) warmup.Method, opts Options) (*RunResult, error) {
	regions, err := reg.Regions(total, seed)
	if err != nil {
		return nil, err
	}
	return RunRegions(p, m, regions, mk, opts)
}

// TestParallelByteIdenticalToSequential pins what the benchmark's sharded
// workload relies on: Options.Shards is ignored, so for every method in the
// paper's matrix a run at Shards 2 — the benchmark's setting — is deeply equal
// to the run at the zero Options: cluster stats, work counters and
// instruction accounting alike.
func TestParallelByteIdenticalToSequential(t *testing.T) {
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	const total = 400_000
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	for _, spec := range warmup.Matrix() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			seq, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, Options{})
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			par, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, Options{Shards: 2})
			if err != nil {
				t.Fatalf("shards=2: %v", err)
			}
			if !reflect.DeepEqual(normalize(seq), normalize(par)) {
				t.Error("shards=2: result differs from the zero Options'")
			}
		})
	}
}

// TestParallelAllWorkloadsIdentical is the identity above along the workload
// axis: every workload × one method per family arm at Shards 2 matches the
// run at the zero Options byte for byte.
func TestParallelAllWorkloadsIdentical(t *testing.T) {
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	const total = 400_000
	labels := []string{
		"None", "S$", "SBP", "S$BP", "FP (20%)", "FP (80%)",
		"R$ (20%)", "RBP", "R$BP (20%)", "R$BP (100%)",
	}
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		for _, label := range labels {
			spec, err := warmup.SpecByLabel(label)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := RunSampledOpts(p, DefaultMachine(), reg, total, 1, spec, Options{})
			if err != nil {
				t.Fatalf("%s/%s seq: %v", name, label, err)
			}
			par, err := RunSampledOpts(p, DefaultMachine(), reg, total, 1, spec, Options{Shards: 2})
			if err != nil {
				t.Fatalf("%s/%s shards=2: %v", name, label, err)
			}
			if !reflect.DeepEqual(normalize(seq), normalize(par)) {
				t.Errorf("%s/%s: shards=2 result differs from the zero Options'", name, label)
			}
		}
	}
}

// TestWindowEndsIdentical runs the two ends of the forward method's axis
// through the whole controller: S$BP is FP at 100% and None is FP at 0%, in
// every cluster statistic and work counter. Only the name differs.
func TestWindowEndsIdentical(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	for _, pair := range [][2]warmup.Spec{
		{{Kind: warmup.KindSMARTS, Cache: true, BPred: true}, {Kind: warmup.KindFixed, Percent: 100, Cache: true, BPred: true}},
		{{Kind: warmup.KindNone}, {Kind: warmup.KindFixed, Percent: 0, Cache: true, BPred: true}},
	} {
		var res [2]*RunResult
		for i, spec := range pair {
			if res[i], err = RunSampled(p, DefaultMachine(), reg, 400_000, 2007, spec); err != nil {
				t.Fatalf("%s: %v", spec.Label(), err)
			}
			normalize(res[i]).Method = ""
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s differs from %s", pair[0].Label(), pair[1].Label())
		}
	}
}

// TestReverseLogsForwardWindow pins "one percentage, one meaning" across the
// two directions: R$BP (p%) logs exactly the references FP (p%) applies — the
// same position cut-off, the same per-line collapse of instruction fetches
// restarting at the window's first instruction — so over one run the reverse
// method's LoggedRecords is the forward method's WarmOps. Logging the whole region and selecting afterwards, what
// reverse did before, fails this at every p below 100.
func TestReverseLogsForwardWindow(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	for _, percent := range []int{0, 20, 40, 80, 100} {
		fwd, err := RunSampled(p, DefaultMachine(), reg, 400_000, 2007,
			warmup.Spec{Kind: warmup.KindFixed, Percent: percent, Cache: true, BPred: true})
		if err != nil {
			t.Fatalf("FP (%d%%): %v", percent, err)
		}
		rev, err := RunSampled(p, DefaultMachine(), reg, 400_000, 2007,
			warmup.Spec{Kind: warmup.KindReverse, Percent: percent, Cache: true, BPred: true})
		if err != nil {
			t.Fatalf("R$BP (%d%%): %v", percent, err)
		}
		if rev.Work.LoggedRecords != fwd.Work.WarmOps || (percent > 0 && fwd.Work.WarmOps == 0) {
			t.Errorf("%d%%: R$BP logged %d records, FP applied %d", percent, rev.Work.LoggedRecords, fwd.Work.WarmOps)
		}
		if rev.Work.ReconScanned > rev.Work.LoggedRecords {
			t.Errorf("%d%%: R$BP scanned %d records of the %d it logged", percent, rev.Work.ReconScanned, rev.Work.LoggedRecords)
		}
	}
}

// allocatedBy reports the bytes f allocates (TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParallelAllocationBudget is the timing-free guard on what a run at the
// benchmark's Shards 2 allocates, which the benchmark reports as the sharded
// workload's alloc_mb. The option is ignored, so the run allocates what one at
// the zero Options does, within a tenth for scheduling noise, and a run three
// times as long, over regions of the same length, about what the shorter one
// does: the producer loop allocates nothing per region.
func TestParallelAllocationBudget(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const stratum = 50_000
	for _, label := range []string{"S$BP", "R$BP (20%)"} {
		spec, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		run := func(clusters, shards int) uint64 {
			reg := Regimen{ClusterSize: 2000, NumClusters: clusters}
			return allocatedBy(func() {
				if _, err := RunSampledOpts(p, DefaultMachine(), reg, uint64(clusters)*stratum, 2007, spec, Options{Shards: shards}); err != nil {
					t.Fatalf("%s clusters=%d shards=%d: %v", label, clusters, shards, err)
				}
			})
		}
		run(50, 2) // the ring
		seq, par, long := run(50, 0), run(50, 2), run(150, 2)
		t.Logf("%s: zero Options %.2f MB, two shards %.2f MB (%.2fx), two shards over 3x the regions %.2f MB",
			label, float64(seq)/1e6, float64(par)/1e6, float64(par)/float64(seq), float64(long)/1e6)
		if long > par+par/2 {
			t.Errorf("%s: 150 regions allocate %d bytes against %d for 50: the producer loop allocates per region", label, long, par)
		}
		if par > seq+seq/10 {
			t.Errorf("%s: two shards allocate %d bytes, over the zero Options' %d", label, par, seq)
		}
	}
}

// pcAtDynIndex runs p functionally and returns the PC of the committed
// dynamic instruction at index target.
func pcAtDynIndex(t *testing.T, p *prog.Program, target uint64) uint64 {
	t.Helper()
	fs := funcsim.New(p)
	buf := make([]trace.DynInst, funcsim.BatchSize)
	var seen uint64
	for seen <= target {
		b := buf
		if rem := target + 1 - seen; rem < uint64(len(b)) {
			b = b[:rem]
		}
		k, err := fs.RunBatch(b)
		if err != nil {
			t.Fatalf("probe run faulted: %v", err)
		}
		if k == 0 {
			t.Fatalf("probe run halted after %d instructions", seen)
		}
		seen += uint64(k)
		if seen > target {
			return b[k-int(seen-target)].PC
		}
	}
	panic("unreachable")
}

// faultAt returns a copy of p whose static instruction at the PC executed at
// dynamic index target is replaced with an invalid opcode. The fault fires
// deterministically at the first dynamic execution of that static
// instruction — at or before target — identically for any execution
// strategy.
func faultAt(t *testing.T, p *prog.Program, target uint64) *prog.Program {
	t.Helper()
	pc := pcAtDynIndex(t, p, target)
	idx, ok := p.IndexOf(pc)
	if !ok {
		t.Fatalf("probe pc %#x outside code segment", pc)
	}
	insts := append([]isa.Inst(nil), p.Insts...)
	insts[idx] = isa.Inst{Op: isa.Op(250)}
	return &prog.Program{Name: p.Name + "-faulty", Insts: insts, Data: p.Data, Entry: p.Entry}
}

// TestParallelFaultIdentical is the chaos variant of the byte-identity
// property: a workload that faults mid-run (invalid opcode planted in its
// instruction stream) fails the run with no partial result, for faults
// landing in cold skip and in measured clusters alike, and at the
// benchmark's Shards 2 with exactly the error of the zero Options — same
// phase attribution, same PC.
func TestParallelFaultIdentical(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	const total = 400_000
	starts, err := Positions(total, reg, 2007)
	if err != nil {
		t.Fatal(err)
	}
	// One fault aimed inside a late cold region, one inside a measured
	// cluster; loops may pull the first execution earlier, which both paths
	// see identically.
	targets := []uint64{
		(starts[6] + starts[7]) / 2,
		starts[8] + reg.ClusterSize/2,
	}
	for _, label := range []string{"R$BP (20%)", "S$BP"} {
		spec, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			fp := faultAt(t, p, target)
			seqRes, seqErr := RunSampledOpts(fp, DefaultMachine(), reg, total, 2007, spec, Options{})
			if seqErr == nil {
				t.Fatalf("%s target=%d: the run did not fault", label, target)
			}
			if seqRes != nil {
				t.Fatalf("%s target=%d: partial state escaped a faulted run", label, target)
			}
			parRes, parErr := RunSampledOpts(fp, DefaultMachine(), reg, total, 2007, spec, Options{Shards: 2})
			if parRes != nil || parErr == nil || parErr.Error() != seqErr.Error() {
				t.Errorf("%s target=%d shards=2: got %v, %v; want nil, %v", label, target, parRes, parErr, seqErr)
			}
		}
	}
}

// TestParallelCancelPreClosed pins the earliest cancel point of the run-ahead
// feed: a pre-closed channel aborts with ErrCanceled before the producer has
// sent anything, and only the zero value escapes.
func TestParallelCancelPreClosed(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := warmup.SpecByLabel("R$BP (20%)")
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	res, err := RunSampledOpts(w.Build(), DefaultMachine(), reg, 400_000, 2007, spec,
		Options{Cancel: closedChan()})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Errorf("partial state escaped a canceled run: %+v", res)
	}
}

// TestParallelCancelMidRun fires cancellation while the producer runs ahead of
// the walker, for both a reverse method and a functional-warming method: the
// walker closes the channel itself at the first region's EndSkip, so the
// cancel lands mid-run however the run is scheduled. Both must return
// ErrCanceled with no partial result, and the producer must exit (the race
// detector guards the teardown).
func TestParallelCancelMidRun(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	reg := Regimen{ClusterSize: 2000, NumClusters: 20}
	for _, label := range []string{"R$BP (20%)", "S$BP"} {
		spec, _ := warmup.SpecByLabel(label)
		cancel := make(chan struct{})
		mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
			return &cancelingMethod{Method: spec.New(h, u), at: "hot", cancel: cancel}
		}
		res, err := runSampled(p, DefaultMachine(), reg, 2_000_000, 2007, mk, Options{Cancel: cancel})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", label, err)
		}
		if res != nil {
			t.Errorf("%s: partial state escaped a canceled run: %+v", label, res)
		}
	}
}
