package regimen

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/simpoint"
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

func TestStratifiedUniformByteIdentical(t *testing.T) {
	p := testParams(t, "twolf")
	legacy, err := sampling.RunSampledOpts(p.Program, p.Machine, p.Regimen, p.Total, p.Seed, p.Warmup, sampling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := StratifiedUniform{}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Estimate.IPC, legacy.IPCEstimate(); got != want {
		t.Fatalf("IPC through seam = %v, legacy = %v", got, want)
	}
	if got, want := out.Estimate.CI, legacy.CI(); got != want {
		t.Fatalf("CI through seam = %+v, legacy = %+v", got, want)
	}
	if out.Work != legacy.Work {
		t.Fatalf("work through seam = %+v, legacy = %+v", out.Work, legacy.Work)
	}
	if out.FuncInstructions != legacy.FuncInstructions || out.HotInstructions != legacy.HotInstructions {
		t.Fatalf("instruction accounting diverged: %d/%d vs %d/%d",
			out.FuncInstructions, out.HotInstructions, legacy.FuncInstructions, legacy.HotInstructions)
	}
	if len(out.Regions) != len(legacy.Clusters) {
		t.Fatalf("regions = %d, clusters = %d", len(out.Regions), len(legacy.Clusters))
	}
	for i := range out.Regions {
		if out.Regions[i].Region.Start != legacy.Clusters[i].Start {
			t.Fatalf("region %d start %d, cluster start %d", i, out.Regions[i].Region.Start, legacy.Clusters[i].Start)
		}
		if !reflect.DeepEqual(out.Regions[i].Result, legacy.Clusters[i].Result) {
			t.Fatalf("region %d result diverged:\n%+v\n%+v", i, out.Regions[i].Result, legacy.Clusters[i].Result)
		}
	}
}

func TestSimPointByteIdentical(t *testing.T) {
	p := testParams(t, "parser")
	legacy, err := simpoint.Estimate(p.Program, p.Machine, p.Total, simpoint.Config{
		IntervalSize: p.Regimen.ClusterSize,
		MaxPoints:    p.Regimen.NumClusters,
		Seed:         p.Seed,
		Warmup:       p.Warmup,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimPoint{}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Estimate.IPC != legacy.IPC {
		t.Fatalf("IPC through seam = %v, legacy = %v", out.Estimate.IPC, legacy.IPC)
	}
	if out.HotInstructions != legacy.HotInstructions {
		t.Fatalf("hot instructions %d vs %d", out.HotInstructions, legacy.HotInstructions)
	}
	if out.Plan.ProfileInstructions != legacy.ProfileInstructions {
		t.Fatalf("profile instructions %d vs %d", out.Plan.ProfileInstructions, legacy.ProfileInstructions)
	}
	if len(out.Regions) != len(legacy.Points) {
		t.Fatalf("regions = %d, points = %d", len(out.Regions), len(legacy.Points))
	}
	for i, pt := range legacy.Points {
		if out.Regions[i].Region.Weight != pt.Weight {
			t.Fatalf("point %d weight %v vs %v", i, out.Regions[i].Region.Weight, pt.Weight)
		}
	}
}

func TestRepeatedSubsamplingPlacementMatchesBaseline(t *testing.T) {
	// Same seed → the exact baseline positions: the strategy changes only
	// the estimator, not the detailed work.
	p := testParams(t, "twolf")
	plan, err := RepeatedSubsampling{}.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	starts, err := sampling.Positions(p.Total, p.Regimen, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != len(starts) {
		t.Fatalf("regions = %d, positions = %d", len(plan.Regions), len(starts))
	}
	for i := range starts {
		if plan.Regions[i].Start != starts[i] {
			t.Fatalf("region %d at %d, baseline position %d", i, plan.Regions[i].Start, starts[i])
		}
		if plan.Regions[i].Draw != i%5 {
			t.Fatalf("region %d draw = %d", i, plan.Regions[i].Draw)
		}
	}
}

func TestAllStrategiesRunAndAreDeterministic(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			p := testParams(t, "gcc")
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
			if !reflect.DeepEqual(a.Regions, b.Regions) {
				t.Fatalf("regions not deterministic")
			}
			if a.Estimate.IPC <= 0 || a.Estimate.IPC > 4 {
				t.Fatalf("implausible IPC %v", a.Estimate.IPC)
			}
			if a.HotInstructions == 0 {
				t.Fatal("no detailed simulation happened")
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

// TestStrategiesShardedIdentical pins that every strategy's measurement
// passes go through the one region walker: Params.Shards changes how regions
// are fed to it, never what comes out.
func TestStrategiesShardedIdentical(t *testing.T) {
	for _, s := range All() {
		p := testParams(t, "twolf")
		p.Warmup.Percent = 20
		seq, err := s.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		p.Shards = 2
		par, err := s.Run(p)
		if err != nil {
			t.Fatalf("%s shards=2: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(seq.Estimate, par.Estimate) || !reflect.DeepEqual(seq.Regions, par.Regions) ||
			seq.Work != par.Work || seq.FuncInstructions != par.FuncInstructions || seq.HotInstructions != par.HotInstructions {
			t.Errorf("%s: Shards=2 outcome differs from Shards=0:\n%+v\n%+v", s.Name(), seq, par)
		}
	}
}

// TestRunCanceled closes Cancel before Run: every strategy must return
// ErrCanceled, and the ones that open with a functional profiling pass over
// the whole run (BBV or sketch-cache scoring) must stop that pass at its
// first batch rather than finish it and notice at the first region.
func TestRunCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	profiles := map[string]bool{"simpoint": true, "two-phase-stratified": true, "ranked-set": true}
	for _, s := range All() {
		p := testParams(t, "twolf")
		p.Cancel = done
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
	for _, name := range Names() {
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
	e := Estimate{IPC: 2, CI: statsPoint(0.5), Space: "CPI"}
	e.CI.Err = 0.1
	if !e.Confident(2.0) {
		t.Fatal("CPI interval should cover the true IPC")
	}
	if e.Confident(5.0) || e.Confident(0) {
		t.Fatal("coverage claimed outside the interval")
	}
	// IPC-space interval covers directly.
	e = Estimate{IPC: 2, CI: statsPoint(2), Space: "IPC"}
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
	nilIn.record(&Outcome{Strategy: "x"})
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
