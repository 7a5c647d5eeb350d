package experiments

import (
	"strings"
	"testing"

	"rsr/internal/regimen"
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
	f, err := lab.Figure6()
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

func TestSweep(t *testing.T) {
	lab := smallLab("twolf")
	rev, fp, err := lab.Sweep("twolf", []int{20, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rev) != 2 || len(fp) != 2 {
		t.Fatalf("points = %d/%d", len(rev), len(fp))
	}
	if rev[0].Percent != 20 || rev[1].Percent != 100 {
		t.Fatal("percent order wrong")
	}
	// Work must grow with the percentage for both families.
	if rev[1].Cell.Work.ReconScanned <= rev[0].Cell.Work.ReconScanned {
		t.Fatal("reverse work should grow with percentage")
	}
	if fp[1].Cell.Work.WarmOps <= fp[0].Cell.Work.WarmOps {
		t.Fatal("fixed-period work should grow with percentage")
	}
	// Accuracy must not degrade from 20% to 100% (more state can only help
	// at this workload's scale).
	if rev[1].Cell.RelErr > rev[0].Cell.RelErr+0.01 {
		t.Fatalf("reverse RE degraded: %v -> %v", rev[0].Cell.RelErr, rev[1].Cell.RelErr)
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
	fig, err := lab.Figure7()
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
	named.Strategy = ""
	if named != ref {
		t.Fatalf("one job, two cells:\nhead-to-head %+v\nFigure 7     %+v", named, ref)
	}
}
