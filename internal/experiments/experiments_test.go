package experiments

import (
	"math"
	"strings"
	"testing"

	"rsr/internal/ooo"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// smallLab returns a lab scaled for test runtime. Percent-limited warm-up
// needs long skip regions for full fidelity, so shape assertions here are
// loose; the bench harness runs at scale 1.0.
func smallLab(workloads ...string) *Lab {
	cfg := DefaultConfig()
	cfg.Scale = 0.1 // 2M instructions
	cfg.Workloads = workloads
	return NewLab(cfg)
}

func TestRegimenForKnownAndDefault(t *testing.T) {
	if RegimenFor("mcf").ClusterSize != 8000 {
		t.Error("mcf regimen wrong")
	}
	def := RegimenFor("unknown")
	if def.ClusterSize == 0 || def.NumClusters == 0 {
		t.Error("default regimen must be usable")
	}
	if def != DefaultRegimen() {
		t.Error("fallback must be DefaultRegimen")
	}
}

func TestRegimenForStrict(t *testing.T) {
	r, err := RegimenForStrict("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if r != RegimenFor("mcf") {
		t.Errorf("strict lookup diverged: %+v vs %+v", r, RegimenFor("mcf"))
	}
	if _, err := RegimenForStrict("unknown"); err == nil {
		t.Fatal("unknown workload must error")
	} else if !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestTable1(t *testing.T) {
	lab := smallLab("twolf", "parser")
	rows, err := lab.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TrueIPC <= 0 || r.TrueIPC > 4 {
			t.Fatalf("%s true IPC = %f", r.Workload, r.TrueIPC)
		}
		if r.Total != 2_000_000 {
			t.Fatalf("total = %d", r.Total)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "twolf") || !strings.Contains(out, "parser") {
		t.Error("render missing workloads")
	}
}

func TestFullCached(t *testing.T) {
	lab := smallLab("twolf")
	a, err := lab.Full("twolf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Full("twolf")
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Fatal("cached baseline differs")
	}
}

func TestMatrixShape(t *testing.T) {
	lab := smallLab("twolf")
	specs := []warmup.Spec{
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
	}
	cells, err := lab.runArms(lab.matrix(specs))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	cell := map[string]Cell{}
	for _, c := range cells {
		cell[c.Method] = c
	}
	none, smarts, rsr := cell["None"], cell["S$BP"], cell["R$BP (100%)"]
	if none.RelErr <= smarts.RelErr {
		t.Fatalf("no-warm-up RE %.4f should exceed SMARTS %.4f", none.RelErr, smarts.RelErr)
	}
	if rsr.RelErr > none.RelErr {
		t.Fatalf("RSR RE %.4f should not exceed no-warm-up %.4f", rsr.RelErr, none.RelErr)
	}
	avgs := averageBy(cells, byMethod)
	if len(avgs) != 3 {
		t.Fatalf("averages = %d", len(avgs))
	}
}

func TestFigure6Shape(t *testing.T) {
	lab := smallLab("parser")
	f, err := lab.Figure("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 2 {
		t.Fatalf("cells = %d", len(f.Cells))
	}
	out := f.Render()
	if !strings.Contains(out, "RBP") || !strings.Contains(out, "SBP") {
		t.Error("figure 6 render missing methods")
	}
}

func TestFigure9SmallScale(t *testing.T) {
	lab := smallLab("twolf")
	f, err := lab.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 5 {
		t.Fatalf("cells = %d, want four SimPoint configurations and the reference", len(f.Cells))
	}
	for _, c := range f.Cells {
		if c.Estimate <= 0 {
			t.Fatalf("%s estimate = %f", c.Method, c.Estimate)
		}
	}
	if ref := f.Cells[4]; ref.Method != "R$BP (20%)" || ref.Strategy != "" {
		t.Fatalf("missing sampled reference: %+v", ref)
	}
	out := RenderFigure9(f)
	if !strings.Contains(out, "50K-SMARTS") {
		t.Error("render missing config")
	}
}

func TestDeterministicCells(t *testing.T) {
	lab := smallLab("twolf")
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true}
	a, err := lab.Run("twolf", spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Run("twolf", spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.RelErr != b.RelErr || a.Work != b.Work {
		t.Fatal("cells not deterministic")
	}
}

func TestRenderAppendix(t *testing.T) {
	cells := []Cell{
		{Workload: "twolf", Method: "None", RelErr: 0.23, Confident: false},
		{Workload: "twolf", Method: "S$BP", RelErr: 0.009, Confident: true},
	}
	out := RenderAppendix(cells)
	for _, want := range []string{"yes", "no", "0.2300", "0.0090"} {
		if !strings.Contains(out, want) {
			t.Errorf("appendix render missing %q", want)
		}
	}
}

// TestFrontier: the frontier runs one arm per label — R$BP and FP at every
// frontier percentage and the rest of the method matrix. Each family's work
// grows with its percentage, R$BP's RE does not degrade from 20 to 100% (more
// state can only help at this workload's scale), and every R$BP/FP cell is the
// cell lab.Run gives its spec on a fresh lab, on every deterministic field.
func TestFrontier(t *testing.T) {
	lab := smallLab("twolf")
	defer lab.Close()
	f, err := lab.Figure("frontier")
	if err != nil {
		t.Fatal(err)
	}
	cell := map[string]Cell{}
	for _, c := range f.Cells {
		if _, dup := cell[c.Method]; dup {
			t.Fatalf("two %s arms", c.Method)
		}
		cell[c.Method] = c
	}
	for _, s := range warmup.Matrix() {
		if _, ok := cell[s.Label()]; !ok {
			t.Errorf("no %s arm", s.Label())
		}
	}
	if len(cell) != 25 { // the 16 of the matrix, R$BP at 5/10/30/60%, FP at 5/10/30/60/100%
		t.Fatalf("%d arms, want 25", len(cell))
	}
	for i, p := range frontierPercents[1:] {
		lo := frontierPercents[i]
		if cell[rbp(p).Label()].Work.ReconScanned <= cell[rbp(lo).Label()].Work.ReconScanned {
			t.Errorf("reverse work should grow from %d to %d%%", lo, p)
		}
		if cell[fp(p).Label()].Work.WarmOps <= cell[fp(lo).Label()].Work.WarmOps {
			t.Errorf("fixed-period work should grow from %d to %d%%", lo, p)
		}
	}
	if lo, hi := cell[rbp(20).Label()].RelErr, cell[rbp(100).Label()].RelErr; hi > lo+0.01 {
		t.Errorf("reverse RE degraded: %v -> %v", lo, hi)
	}

	fresh := smallLab("twolf")
	defer fresh.Close()
	for _, family := range []func(int) warmup.Spec{rbp, fp} {
		for _, p := range frontierPercents {
			want, err := fresh.Run("twolf", family(p))
			if err != nil {
				t.Fatal(err)
			}
			got := cell[want.Method]
			if got.AddedErrPct == nil {
				t.Errorf("%s: unpaired beside S$BP", got.Method)
			}
			got.Elapsed, got.AddedErrPct, want.Elapsed = 0, nil, 0
			if got != want {
				t.Errorf("frontier cell differs from lab.Run:\n%+v\n%+v", got, want)
			}
		}
	}
}

// TestPairedAddedErrorZeroForSBP: S$BP paired with itself adds nothing, every
// other arm of Figure 8 is paired with it and adds something, and Figure 5,
// which has no S$BP arm, leaves every cell and average unpaired.
func TestPairedAddedErrorZeroForSBP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Workloads = []string{"twolf"}
	lab := NewLab(cfg)
	defer lab.Close()
	f8, err := lab.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f8.Cells {
		switch {
		case c.AddedErrPct == nil:
			t.Errorf("%s: unpaired beside S$BP", c.Method)
		case c.Method == sbp.Label() && *c.AddedErrPct != 0:
			t.Errorf("S$BP adds %v%% over itself", *c.AddedErrPct)
		case c.Method != sbp.Label() && !(*c.AddedErrPct > 0):
			t.Errorf("%s adds %v%% over S$BP", c.Method, *c.AddedErrPct)
		}
	}
	if a := f8.Averages[len(f8.Averages)-1]; a.Method != sbp.Label() || a.MeanAddedErrPct == nil || *a.MeanAddedErrPct != 0 {
		t.Errorf("S$BP average %+v", a)
	}
	f5, err := lab.Figure("fig5")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f5.Cells {
		if c.AddedErrPct != nil {
			t.Errorf("%s: paired with no S$BP arm: %v", c.Method, *c.AddedErrPct)
		}
	}
	for _, a := range f5.Averages {
		if a.MeanAddedErrPct != nil {
			t.Errorf("%s: average paired with no S$BP arm", a.Method)
		}
	}
}

// TestAddedErrRefusesOtherPlacements: clusters pair by position only where
// they start at the same instruction; a cluster that retired nothing in
// either run is left out.
func TestAddedErrRefusesOtherPlacements(t *testing.T) {
	stat := func(start, instr, cycles uint64) sampling.ClusterStat {
		return sampling.ClusterStat{Start: start, Result: ooo.Result{Instructions: instr, Cycles: cycles}}
	}
	base := []sampling.ClusterStat{stat(0, 100, 100), stat(1000, 100, 200), stat(2000, 0, 0)}
	got, err := addedErrPct([]sampling.ClusterStat{stat(0, 100, 110), stat(1000, 100, 170), stat(2000, 100, 900)}, base)
	if want := 100 * (0.1 + 0.3) / (1 + 2); err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("added error %v, %v; want %v", got, err, want)
	}
	if _, err := addedErrPct([]sampling.ClusterStat{stat(0, 100, 110), stat(1500, 100, 170), stat(2000, 0, 0)}, base); err == nil {
		t.Fatal("clusters starting at different instructions were paired")
	}
	if _, err := addedErrPct(base[:2], base); err == nil {
		t.Fatal("runs of different cluster counts were paired")
	}
}

func TestStrategyHeadToHead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02 // 400K instructions: every strategy runs in well under a second
	cfg.Workloads = []string{"twolf"}
	lab := NewLab(cfg)
	defer lab.Close()
	cells, err := lab.StrategyHeadToHead()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want one per registered strategy", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Strategy] {
			t.Fatalf("duplicate strategy %s", c.Strategy)
		}
		seen[c.Strategy] = true
		if c.TrueIPC <= 0 || c.Estimate <= 0 {
			t.Fatalf("%s: degenerate cell %+v", c.Strategy, c)
		}
		if c.RelErr > 1 {
			t.Fatalf("%s: relative error %.2f implausible even at tiny scale", c.Strategy, c.RelErr)
		}
		if c.HotInstructions == 0 {
			t.Fatalf("%s: no detailed work recorded", c.Strategy)
		}
	}
	avgs := averageBy(cells, byStrategy)
	if len(avgs) != 4 {
		t.Fatalf("averages = %d", len(avgs))
	}
	text := RenderStrategies(cells)
	for name := range seen {
		if !strings.Contains(text, name) {
			t.Fatalf("render missing %s", name)
		}
	}
}

// TestPaperDesignIsOneJob: the head-to-head's stratified-uniform arm is the
// job Figure 7's R$BP (20%) arm already ran, so on one Lab it comes from the
// cache — the head-to-head misses only on the three registered strategies —
// and its cell is Figure 7's, labelled by the arm's strategy name.
func TestPaperDesignIsOneJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workloads = []string{"twolf"}
	lab := NewLab(cfg)
	defer lab.Close()
	fig, err := lab.Figure("fig7")
	if err != nil {
		t.Fatal(err)
	}
	before := lab.Engine().Stats().CacheMisses
	cells, err := lab.StrategyHeadToHead()
	if err != nil {
		t.Fatal(err)
	}
	if misses := lab.Engine().Stats().CacheMisses - before; misses != 3 {
		t.Errorf("head-to-head after Figure 7: %d cache misses, want 3", misses)
	}
	var ref Cell
	for _, c := range fig.Cells {
		if c.Method == strategyWarmup().Label() {
			ref = c
		}
	}
	named := cells[0]
	if named.Strategy != regimen.PaperDesign || ref.CIRel <= 0 || ref.Regions == 0 {
		t.Fatalf("head-to-head's first cell %+v, Figure 7's reference %+v", named, ref)
	}
	// Figure 7 pairs the run with its S$BP arm; the head-to-head has none.
	if named.AddedErrPct != nil || ref.AddedErrPct == nil {
		t.Fatalf("pairing: head-to-head %v, Figure 7 %v", named.AddedErrPct, ref.AddedErrPct)
	}
	named.Strategy, ref.AddedErrPct = "", nil
	if named != ref {
		t.Fatalf("one job, two cells:\nhead-to-head %+v\nFigure 7     %+v", named, ref)
	}
}
