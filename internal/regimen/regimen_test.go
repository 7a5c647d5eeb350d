package regimen

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsr/internal/isa"
	"rsr/internal/obs"
	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// testParams is a fast shared configuration: 200K instructions, 10 clusters
// of 2K, reverse warm-up (the repo's method) to exercise the observe path.
func testParams(t *testing.T, name string) Params {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Program: w.Build(),
		Machine: sampling.DefaultMachine(),
		Regimen: sampling.Regimen{ClusterSize: 2000, NumClusters: 10},
		Total:   200_000,
		Seed:    2007,
		Warmup:  warmup.Spec{Kind: warmup.KindReverse, Cache: true, BPred: true},
	}
}

// checkClusters pins the Outcome's one per-cluster record: one walker
// measurement per planned region, index-aligned with Plan.Regions.
func checkClusters(t *testing.T, name string, out *Outcome) {
	t.Helper()
	if len(out.Clusters) != len(out.Plan.Regions) {
		t.Fatalf("%s: %d clusters for %d planned regions", name, len(out.Clusters), len(out.Plan.Regions))
	}
	for i, c := range out.Clusters {
		if c.Start != out.Plan.Regions[i].Start {
			t.Fatalf("%s: cluster %d starts at %d, its region at %d", name, i, c.Start, out.Plan.Regions[i].Start)
		}
	}
}

// simPointGolden is what simpoint.Estimate — the standalone estimate path
// SimPoint.Run used to delegate to — returned for testParams at the commit
// that deleted it: the IPC bit for bit, the chosen intervals with their
// weights, and the hot and profiled instruction counts. The IPC bits were
// re-derived once since: testParams warms with a reverse spec of Percent 0,
// whose empty window now logs nothing, so the history register is the previous
// cluster's instead of one rebuilt from a log nothing else read.
type goldenPoint struct {
	interval int
	weight   float64
}

var simPointGolden = []struct {
	workload     string
	ipcBits      uint64
	hot, profile uint64
	points       []goldenPoint
}{
	{"parser", 0x3fe4fc14f06188be, 20000, 200000, []goldenPoint{
		{1, 0.03}, {19, 0.07}, {29, 0.07}, {44, 0.13}, {56, 0.09}, {57, 0.07}, {62, 0.17}, {72, 0.13}, {92, 0.05}, {93, 0.19}}},
	{"twolf", 0x3fe41ae15990f21a, 20000, 200000, []goldenPoint{
		{1, 0.06}, {6, 0.01}, {8, 0.18}, {11, 0.16}, {14, 0.12}, {17, 0.18}, {18, 0.1}, {33, 0.12}, {52, 0.01}, {54, 0.06}}},
}

func TestSimPointByteIdentical(t *testing.T) {
	for _, g := range simPointGolden {
		p := testParams(t, g.workload)
		out, err := SimPoint{}.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(out.Estimate.IPC); got != g.ipcBits {
			t.Errorf("%s: IPC = %v (%#x), golden %v", g.workload, out.Estimate.IPC, got, math.Float64frombits(g.ipcBits))
		}
		if out.HotInstructions != g.hot || out.Plan.ProfileInstructions != g.profile {
			t.Errorf("%s: hot/profile instructions %d/%d, golden %d/%d",
				g.workload, out.HotInstructions, out.Plan.ProfileInstructions, g.hot, g.profile)
		}
		checkClusters(t, g.workload, out)
		if len(out.Clusters) != len(g.points) {
			t.Fatalf("%s: regions = %d, golden points = %d", g.workload, len(out.Clusters), len(g.points))
		}
		for i, pt := range g.points {
			r := out.Plan.Regions[i]
			if r.Start != uint64(pt.interval)*p.Regimen.ClusterSize || r.Weight != pt.weight {
				t.Errorf("%s: point %d = start %d weight %v, golden interval %d weight %v",
					g.workload, i, r.Start, r.Weight, pt.interval, pt.weight)
			}
			if out.Clusters[i].Result.Instructions == 0 {
				t.Errorf("%s: point %d carries no measurement", g.workload, i)
			}
		}
	}
}

// haltingAt builds a counted loop with memory traffic that commits exactly n
// instructions, the last of them the halt.
func haltingAt(n uint64) *prog.Program {
	const body = 5 // loop instructions per iteration
	iters, pad := (n-3)/body, (n-3)%body
	b := prog.NewBuilder("halting")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, int64(iters))
	b.Label("loop")
	b.St(1, 2, 0)
	b.Ld(3, 1, 0)
	b.Op3(isa.OpAdd, 4, 4, 3)
	b.Addi(2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "loop")
	for i := uint64(0); i < pad; i++ {
		b.Nop()
	}
	b.Halt()
	return b.MustBuild()
}

// TestEmptyRetireClusterOneRule pins the one rule for a cluster that retired
// nothing (ClusterStat.CPI): it is left out of the estimate, by
// RunResult.IPCEstimate as by every registered strategy's estimator. The
// workload ends exactly where the last cluster starts, so RunSampledOpts
// measures nine clusters and an empty tenth; every row must estimate from the
// nine what it estimates from the ten, and neither may be 0 or NaN. The
// strategies select by profiling the whole run, which a halting workload
// refuses, so their rows apply each one's estimator to these clusters.
func TestEmptyRetireClusterOneRule(t *testing.T) {
	p := testParams(t, "twolf")
	p.Warmup = warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
	starts, err := sampling.Positions(p.Total, p.Regimen, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sampling.RunSampledOpts(haltingAt(starts[len(starts)-1]), p.Machine, p.Regimen, p.Total, p.Seed, p.Warmup, sampling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Clusters
	if last := all[len(all)-1].Result; last.Instructions != 0 || len(res.CPIs()) != len(starts)-1 {
		t.Fatalf("last cluster retired %d instructions, %d CPIs of %d clusters: the workload should end at its start",
			last.Instructions, len(res.CPIs()), len(starts))
	}
	regions := make([]Region, len(all))
	for i, c := range all {
		regions[i] = Region{Start: c.Start, Size: p.Regimen.ClusterSize, Weight: 1, Stratum: i % 2}
	}
	rows := map[string]func([]Region, []sampling.ClusterStat) Estimate{
		"RunSampledOpts": func(_ []Region, cs []sampling.ClusterStat) Estimate {
			r := &sampling.RunResult{Clusters: cs}
			return Estimate{IPC: r.IPCEstimate(), CI: r.CI(), Space: "CPI"}
		},
		"simpoint":   weightedIPC,
		"ranked-set": meanCPI,
		"two-phase-stratified": func(rs []Region, cs []sampling.ClusterStat) Estimate {
			return stratifiedMean(rs, cs, []float64{0.5, 0.5})
		},
	}
	for _, s := range All() {
		if rows[s.Name()] == nil {
			t.Errorf("strategy %s has no row", s.Name())
		}
	}
	for name, estimate := range rows {
		got, want := estimate(regions, all), estimate(regions[:len(all)-1], all[:len(all)-1])
		if got != want || got.IPC == 0 || math.IsNaN(got.IPC) {
			t.Errorf("%s: estimate %+v with the empty cluster, %+v without it", name, got, want)
		}
	}
	// Equal-size clusters: the mean of the nine CPIs is total cycles over
	// total instructions, to rounding.
	var cycles, instrs uint64
	for _, c := range all {
		cycles, instrs = cycles+c.Result.Cycles, instrs+c.Result.Instructions
	}
	if want := float64(instrs) / float64(cycles); math.Abs(res.IPCEstimate()-want) > 1e-9*want {
		t.Errorf("IPCEstimate %v, the nine measured clusters' %v", res.IPCEstimate(), want)
	}
}

// TestAllStrategiesRunAndAreDeterministic: every strategy's outcome is a pure
// function of its inputs, spends no more than the shared budget, and reports
// the walker's work — under a warm-up method every pass skips, logs and
// reconstructs, so an outcome with no work or no functional instructions did
// not go through the walker.
func TestAllStrategiesRunAndAreDeterministic(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			p := testParams(t, "gcc")
			p.Warmup.Percent = 20
			a, err := s.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Estimate != b.Estimate {
				t.Fatalf("estimate not deterministic: %+v vs %+v", a.Estimate, b.Estimate)
			}
			if !reflect.DeepEqual(a.Clusters, b.Clusters) || !reflect.DeepEqual(a.Plan, b.Plan) {
				t.Fatalf("clusters not deterministic")
			}
			checkClusters(t, s.Name(), a)
			if a.Estimate.IPC <= 0 || a.Estimate.IPC > 4 {
				t.Fatalf("implausible IPC %v", a.Estimate.IPC)
			}
			if a.HotInstructions == 0 {
				t.Fatal("no detailed simulation happened")
			}
			if a.Work == (warmup.Work{}) || a.FuncInstructions == 0 {
				t.Fatalf("outcome reports no work (%+v) or no functional instructions (%d)", a.Work, a.FuncInstructions)
			}
			// The detailed budget is bounded by the shared regimen.
			budget := p.Regimen.ClusterSize * uint64(p.Regimen.NumClusters)
			if a.HotInstructions > budget {
				t.Fatalf("hot budget exceeded: %d > %d", a.HotInstructions, budget)
			}
		})
	}
}

func TestAllSelectionsAreValidPlans(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			p := testParams(t, "twolf")
			plan, err := s.Select(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Regions) == 0 {
				t.Fatal("empty plan")
			}
			if err := ValidateRegions(plan.Regions, p.Total); err != nil {
				t.Fatal(err)
			}
			if plan.Candidates < len(plan.Regions) {
				t.Fatalf("candidates %d < selected %d", plan.Candidates, len(plan.Regions))
			}
		})
	}
}

// TestRunCanceled closes Options.Cancel before Run: every strategy must return
// ErrCanceled, and the ones that open with a functional profiling pass over
// the whole run (BBV or sketch-cache scoring) must stop that pass at its
// first batch rather than finish it and notice at the first region.
func TestRunCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	profiles := map[string]bool{"simpoint": true, "two-phase-stratified": true, "ranked-set": true}
	for _, s := range All() {
		p := testParams(t, "twolf")
		p.Options.Cancel = done
		if _, err := s.Run(p); !errors.Is(err, sampling.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", s.Name(), err)
		}
		if !profiles[s.Name()] {
			continue
		}
		if _, err := s.Select(p); !errors.Is(err, sampling.ErrCanceled) {
			t.Errorf("%s: Select err = %v, want ErrCanceled out of the profiling pass", s.Name(), err)
		}
		delete(profiles, s.Name())
	}
	if len(profiles) != 0 {
		t.Errorf("profiling strategies not registered: %v", profiles)
	}
}

// TestRunCanceledMidMeasurement closes Cancel while the measurement pass is
// under way: the walker's polls must see the same channel the profiling
// passes do. The cancel follows the run, not a clock: a watcher closes it as
// soon as some goroutine is inside the timing model, which in a strategy run
// only a measurement pass enters, at its first hot window. From there the
// pass has 40% of the run hot ahead of it, polling the channel once per batch.
func TestRunCanceledMidMeasurement(t *testing.T) {
	for _, s := range All() {
		p := testParams(t, "gcc")
		p.Total, p.Regimen = 1_000_000, sampling.Regimen{ClusterSize: 20_000, NumClusters: 20}
		cancel, stop, watched := make(chan struct{}), make(chan struct{}), make(chan struct{})
		p.Options.Cancel = cancel
		go func() {
			defer close(watched)
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			stacks := make([]byte, 1<<20)
			for !bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte("rsr/internal/ooo.(*Sim).SimulateSource(")) {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
			close(cancel)
		}()
		out, err := s.Run(p)
		close(stop)
		<-watched
		if !errors.Is(err, sampling.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", s.Name(), err)
		}
		if out != nil {
			t.Errorf("%s: a canceled run returned an outcome", s.Name())
		}
	}
}

// TestMeasureRejectsOverlap: out-of-order regions would wrap the walker's
// uint64 skip distance into an exabyte fast-forward; a pass must refuse them.
func TestMeasureRejectsOverlap(t *testing.T) {
	r := &run{p: testParams(t, "parser")}
	_, err := r.measure([]Region{{Start: 20_000, Size: 10_000}, {Start: 10_000, Size: 10_000}})
	if err == nil || !strings.Contains(err.Error(), "behind the simulated position") {
		t.Fatalf("err = %v, want an overlap error", err)
	}
}

// TestRunRefusesOutOfRangeWarmup: Params.Warmup comes from the caller, and an
// FP (150%) spec used to run as None while R$BP (150%) ran as 100%. Every
// strategy's Run refuses it, naming the field.
func TestRunRefusesOutOfRangeWarmup(t *testing.T) {
	p := testParams(t, "parser")
	p.Warmup = warmup.Spec{Kind: warmup.KindFixed, Percent: 150, Cache: true, BPred: true}
	for _, s := range All() {
		if out, err := s.Run(p); err == nil || out != nil || !strings.Contains(err.Error(), "Percent") {
			t.Errorf("%s: Run = %v, %v; want a refusal naming Percent", s.Name(), out, err)
		}
	}
}

// TestWeightedIPCZeroRetirementSafe: the workload halts exactly at the end
// of interval 0, so interval 1 retires nothing. Its weight must drop out of
// the estimate instead of dragging the weighted IPC toward zero.
func TestWeightedIPCZeroRetirementSafe(t *testing.T) {
	const interval = 1000
	b := prog.NewBuilder("halting")
	for i := 0; i < interval-1; i++ {
		b.Nop()
	}
	b.Halt()
	p := Params{Program: b.MustBuild(), Machine: sampling.DefaultMachine(), Total: 2 * interval}

	estimate := func(regions ...Region) (Estimate, uint64) {
		t.Helper()
		r := &run{p: p}
		cs, err := r.measure(regions)
		if err != nil {
			t.Fatal(err)
		}
		return weightedIPC(regions, cs), r.hotInstr
	}
	only, _ := estimate(Region{Start: 0, Size: interval, Weight: 1})
	both, hot := estimate(Region{Start: 0, Size: interval, Weight: 0.5}, Region{Start: interval, Size: interval, Weight: 0.5})
	if only.IPC <= 0 {
		t.Fatalf("reference IPC = %f", only.IPC)
	}
	if both.IPC != only.IPC {
		t.Fatalf("zero-retirement interval poisoned the estimate: %f, want %f", both.IPC, only.IPC)
	}
	if hot != interval {
		t.Fatalf("hot instructions = %d, want %d", hot, interval)
	}
}

func TestValidateRegions(t *testing.T) {
	ok := []Region{{Start: 0, Size: 10}, {Start: 10, Size: 10}, {Start: 50, Size: 10}}
	if err := ValidateRegions(ok, 100); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		regions []Region
		total   uint64
		want    string
	}{
		{"overlap", []Region{{Start: 0, Size: 20}, {Start: 10, Size: 10}}, 100, "overlapping"},
		{"unsorted", []Region{{Start: 50, Size: 10}, {Start: 0, Size: 10}}, 100, "overlapping"},
		{"zero-size", []Region{{Start: 0, Size: 0}}, 100, "zero size"},
		{"past-end", []Region{{Start: 95, Size: 10}}, 100, "past the workload"},
	}
	for _, tc := range cases {
		err := ValidateRegions(tc.regions, tc.total)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestByName(t *testing.T) {
	if names := Names(); names[0] != PaperDesign || len(names) != len(All())+1 {
		t.Fatalf("Names() = %v, want %s and the registered strategies", names, PaperDesign)
	}
	for _, name := range Names()[1:] {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
		if s.Describe() == "" {
			t.Fatalf("%s has no description", name)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("err = %v", err)
	}
}

func TestEstimateConfident(t *testing.T) {
	// CPI-space interval [0.4, 0.6] covers true IPC 2.0 (CPI 0.5).
	e := Estimate{IPC: 2, CI: stats.Interval{Mean: 0.5}, Space: "CPI"}
	e.CI.Err = 0.1
	if !e.Confident(2.0) {
		t.Fatal("CPI interval should cover the true IPC")
	}
	if e.Confident(5.0) || e.Confident(0) {
		t.Fatal("coverage claimed outside the interval")
	}
	// IPC-space interval covers directly.
	e = Estimate{IPC: 2, CI: stats.Interval{Mean: 2}, Space: "IPC"}
	e.CI.Err = 0.1
	if !e.Confident(1.95) || e.Confident(3) {
		t.Fatal("IPC-space coverage wrong")
	}
}

func TestInstrumentsRecord(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInstruments(reg)
	p := testParams(t, "twolf")
	p.Instr = in
	if _, err := (TwoPhaseStratified{}).Run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := (RankedSet{}).Run(p); err != nil {
		t.Fatal(err)
	}
	snaps := reg.Snapshot()
	found := map[string]bool{}
	for _, s := range snaps {
		found[s.Name] = true
	}
	for _, want := range []string{
		"rsr_regimen_runs_total",
		"rsr_regimen_candidates_total",
		"rsr_regimen_selected_regions_total",
		"rsr_regimen_profile_instructions_total",
		"rsr_regimen_hot_instructions_total",
		"rsr_regimen_stratum_allocation",
	} {
		if !found[want] {
			t.Fatalf("metric %s not recorded (have %v)", want, found)
		}
	}
	// Nil instruments must be a no-op, not a panic.
	var nilIn *Instruments
	nilIn.record(new(Outcome))
	nilIn.allocations("x", []int{1})
}

func TestRankedSetSetSizeClamps(t *testing.T) {
	p := testParams(t, "twolf")
	// 10 clusters of 2000 over a 200K workload fit m=3 comfortably.
	if m := (RankedSet{}).setSize(p); m != 3 {
		t.Fatalf("m = %d, want 3", m)
	}
	// Shrink the workload until only m=1 fits.
	p.Total = 22_000
	if m := (RankedSet{}).setSize(p); m != 1 {
		t.Fatalf("m = %d, want 1", m)
	}
}

func TestPickSpread(t *testing.T) {
	members := []int{10, 20, 30, 40, 50}
	used := map[int]bool{}
	got := pickSpread(members, 2, used)
	if len(got) != 2 {
		t.Fatalf("picked %v", got)
	}
	// Picks spread across the stratum, not bunched at the head.
	if got[0] == 10 && got[1] == 20 {
		t.Fatalf("picks bunched at head: %v", got)
	}
	// Already-used members are skipped; exhaustion returns fewer.
	more := pickSpread(members, 5, used)
	for _, m := range more {
		if used[m] != true {
			t.Fatalf("pick %d not marked used", m)
		}
	}
	if len(more) != 3 {
		t.Fatalf("expected the 3 remaining members, got %v", more)
	}
	if extra := pickSpread(members, 1, used); len(extra) != 0 {
		t.Fatalf("exhausted stratum still yielded %v", extra)
	}
}
