package experiments

import (
	"math"
	"testing"

	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// Golden regression values: the stack is fully deterministic, so these
// estimates must reproduce exactly (modulo last-ulp float noise) run over
// run. A deliberate model change that shifts them should update this table
// and re-run the reference reproduction in EXPERIMENTS.md. The R$BP (20%) rows
// were re-derived when the reverse window became a position cut-off (its log
// is the window: LoggedRecords is FP (20%)'s WarmOps); every other row,
// R$BP (100%) included, predates that change and did not move.
var golden = []struct {
	workload string
	method   warmup.Spec
	trueIPC  float64
	estimate float64
	// work is the deterministic warm-up cost signature.
	warmOps, logged, scanned, applied uint64
}{
	{"twolf", warmup.Spec{Kind: warmup.KindNone}, 1.0959540664, 0.7912581796, 0, 0, 0, 0},
	{"twolf", warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}, 1.0959540664, 1.1005579829, 433362, 0, 0, 0},
	{"twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}, 1.0959540664, 1.0963710120, 0, 433362, 432279, 98990},
	{"twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}, 1.0959540664, 1.0454673762, 0, 86874, 86660, 37016},
	{"parser", warmup.Spec{Kind: warmup.KindNone}, 0.7104871455, 0.6650926141, 0, 0, 0, 0},
	{"parser", warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}, 0.7104871455, 0.7038684611, 381903, 0, 0, 0},
	{"parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}, 0.7104871455, 0.7030914933, 0, 381903, 381903, 196387},
	{"parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}, 0.7104871455, 0.6932360954, 0, 76394, 76394, 45730},
}

func TestGoldenRegression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workloads = []string{"twolf", "parser"}
	lab := NewLab(cfg)

	for _, g := range golden {
		full, err := lab.Full(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		if got := full.Result.IPC(); math.Abs(got-g.trueIPC) > 1e-9 {
			t.Fatalf("%s: true IPC drifted: %.10f, golden %.10f", g.workload, got, g.trueIPC)
		}
		c, err := lab.Run(g.workload, g.method)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c.Estimate-g.estimate) > 1e-9 {
			t.Errorf("%s/%s: estimate drifted: %.10f, golden %.10f",
				g.workload, c.Method, c.Estimate, g.estimate)
		}
		if c.Work.WarmOps != g.warmOps || c.Work.LoggedRecords != g.logged ||
			c.Work.ReconScanned != g.scanned || c.Work.ReconApplied != g.applied {
			t.Errorf("%s/%s: work signature drifted: %+v, golden {%d %d %d %d}",
				g.workload, c.Method, c.Work, g.warmOps, g.logged, g.scanned, g.applied)
		}
	}
}

// fullWindowGolden is what the three reverse specs whose window is the whole
// region returned at the commit before reverse began logging only its window
// (b2cf2e0), captured from that commit's own Lab. At 100% the cut-off is at
// position 0 and nothing may differ: these rows were not regenerated with the
// change, and must never be.
var fullWindowGolden = []struct {
	workload string
	method   warmup.Spec
	estimate float64
	work     warmup.Work
}{
	{"twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true}, 1.0011914178, warmup.Work{LoggedRecords: 288629, ReconScanned: 288629, ReconApplied: 25470}},
	{"twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, BPred: true}, 0.8517234624, warmup.Work{LoggedRecords: 144733, ReconScanned: 143650, ReconApplied: 73520}},
	{"twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}, 1.0963710120, warmup.Work{LoggedRecords: 433362, ReconScanned: 432279, ReconApplied: 98990}},
	{"parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true}, 0.7111920290, warmup.Work{LoggedRecords: 159318, ReconScanned: 159318, ReconApplied: 12750}},
	{"parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, BPred: true}, 0.6585229331, warmup.Work{LoggedRecords: 222585, ReconScanned: 222585, ReconApplied: 183637}},
	{"parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}, 0.7030914933, warmup.Work{LoggedRecords: 381903, ReconScanned: 381903, ReconApplied: 196387}},
}

func TestReverseFullWindowUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workloads = []string{"twolf", "parser"}
	lab := NewLab(cfg)
	for _, g := range fullWindowGolden {
		c, err := lab.Run(g.workload, g.method)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c.Estimate-g.estimate) > 1e-9 || c.Work != g.work {
			t.Errorf("%s/%s: estimate %.10f work %+v, before the window cut-off %.10f %+v",
				g.workload, c.Method, c.Estimate, c.Work, g.estimate, g.work)
		}
	}
}

// Golden values for the strategies whose measurement passes run through the
// shared region walker rather than by delegation: twolf at scale 0.05 with
// R$BP (20%). Captured at the commit before the walker replaced
// regimen.measureRegions, so the refactor is pinned by values, not only by
// determinism; estimates and work re-derived once since, when R$BP (p%) began
// logging only the window it scans (the instruction counts did not move).
var strategyGolden = []struct {
	strategy  string
	estimate  float64
	funcInstr uint64
	hotInstr  uint64
	work      warmup.Work
}{
	{"ranked-set", 0.9885427891, 991611, 100000, warmup.Work{LoggedRecords: 86794, ReconScanned: 86794, ReconApplied: 36363}},
	{"two-phase-stratified", 1.0561086259, 1838000, 100000, warmup.Work{LoggedRecords: 169049, ReconScanned: 168852, ReconApplied: 52067}},
}

func TestStrategyGoldenRegression(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	p := regimen.Params{
		Program: w.Build(),
		Machine: sampling.DefaultMachine(),
		Regimen: RegimenFor("twolf"),
		Total:   cfg.Total(),
		Seed:    cfg.Seed,
		Warmup:  strategyWarmup(),
	}
	for _, g := range strategyGolden {
		s, err := regimen.ByName(g.strategy)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.Estimate.IPC-g.estimate) > 1e-9 {
			t.Errorf("%s: estimate drifted: %.10f, golden %.10f", g.strategy, out.Estimate.IPC, g.estimate)
		}
		if out.FuncInstructions != g.funcInstr || out.HotInstructions != g.hotInstr {
			t.Errorf("%s: instruction counts drifted: func %d hot %d, golden %d %d",
				g.strategy, out.FuncInstructions, out.HotInstructions, g.funcInstr, g.hotInstr)
		}
		if out.Work != g.work {
			t.Errorf("%s: work signature drifted: %+v, golden %+v", g.strategy, out.Work, g.work)
		}
	}
}

// Figure 9's deterministic columns on twolf and parser at scale 0.05,
// captured at the commit before SimPoint's private estimate path
// (simpoint.Estimate) was deleted and the figure moved onto the strategy
// seam. The 10M rows ask for 30 points of Total/20 and get 19 or 20.
var figure9Golden = []struct {
	config, workload string
	estimate         float64
	hot              uint64
	points           int
}{
	{"50K", "twolf", 0.9102785996, 75000, 30},
	{"50K-SMARTS", "twolf", 1.0648476085, 75000, 30},
	{"10M", "twolf", 1.0947874375, 950000, 19},
	{"10M-SMARTS", "twolf", 1.0942918237, 950000, 19},
	{"50K", "parser", 0.6995798970, 75000, 30},
	{"50K-SMARTS", "parser", 0.7209928440, 75000, 30},
	{"10M", "parser", 0.7106614019, 1000000, 20},
	{"10M-SMARTS", "parser", 0.7106614019, 1000000, 20},
}

func TestFigure9GoldenRegression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workloads = []string{"twolf", "parser"}
	r, err := NewLab(cfg).Figure9()
	if err != nil {
		t.Fatal(err)
	}
	var rows []Cell // the SimPoint cells, without the R$BP (20%) reference
	for _, c := range r.Cells {
		if c.Strategy != "" {
			rows = append(rows, c)
		}
	}
	if len(rows) != len(figure9Golden) {
		t.Fatalf("%d rows, golden %d", len(rows), len(figure9Golden))
	}
	for i, g := range figure9Golden {
		row := rows[i]
		if row.Method != g.config || row.Workload != g.workload ||
			math.Abs(row.Estimate-g.estimate) > 1e-9 || row.HotInstructions != g.hot || row.Regions != g.points {
			t.Errorf("row %d drifted: {%q, %q, %.10f, %d, %d}, golden %+v",
				i, row.Method, row.Workload, row.Estimate, row.HotInstructions, row.Regions, g)
		}
	}
}
