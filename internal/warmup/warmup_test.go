package warmup

import (
	"fmt"
	"strings"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

func testEnv() (*mem.Hierarchy, *bpred.Unit) {
	return mem.NewHierarchy(mem.DefaultHierarchyConfig()), bpred.NewUnit(bpred.DefaultConfig())
}

func TestLabels(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: KindNone}, "None"},
		{Spec{Kind: KindFixed, Percent: 20, Cache: true, BPred: true}, "FP (20%)"},
		{Spec{Kind: KindFixed, Percent: 20, Cache: true}, "FP$ (20%)"},
		{Spec{Kind: KindFixed, Percent: 20, BPred: true}, "FPBP (20%)"},
		{Spec{Kind: KindSMARTS, Cache: true}, "S$"},
		{Spec{Kind: KindSMARTS, BPred: true}, "SBP"},
		{Spec{Kind: KindSMARTS, Cache: true, BPred: true}, "S$BP"},
		{Spec{Kind: KindReverse, Percent: 40, Cache: true}, "R$ (40%)"},
		{Spec{Kind: KindReverse, Percent: 100, BPred: true}, "RBP"},
		{Spec{Kind: KindReverse, Percent: 20, BPred: true}, "RBP (20%)"},
		{Spec{Kind: KindReverse, Percent: 80, Cache: true, BPred: true}, "R$BP (80%)"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestMatrixMatchesTable2(t *testing.T) {
	m := Matrix()
	if len(m) != 16 {
		t.Fatalf("matrix has %d entries, want 16", len(m))
	}
	want := []string{
		"FP (20%)", "FP (40%)", "FP (80%)", "None",
		"S$", "SBP", "S$BP",
		"R$ (20%)", "R$ (40%)", "R$ (80%)", "R$ (100%)",
		"RBP",
		"R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)",
	}
	for i, s := range m {
		if s.Label() != want[i] {
			t.Fatalf("matrix[%d] = %q, want %q", i, s.Label(), want[i])
		}
	}
}

func memInst(pc, addr uint64, store bool) *trace.DynInst {
	op := isa.OpLd
	if store {
		op = isa.OpSt
	}
	return &trace.DynInst{PC: pc, NextPC: pc + 4, Op: op, EffAddr: addr}
}

func branchInst(pc uint64, taken bool) *trace.DynInst {
	d := &trace.DynInst{PC: pc, NextPC: pc + 4, Op: isa.OpBne, Taken: taken}
	if taken {
		d.NextPC = pc + 64
	}
	return d
}

func TestNoneIsInert(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindNone}.New(h, u)
	m.BeginSkip(10)
	observe1(m, memInst(0x400000, 0x1000, false))
	observe1(m, branchInst(0x400004, true))
	m.EndSkip()
	if h.TotalUpdates() != 0 || u.Updates() != 0 {
		t.Fatal("None must not touch any state")
	}
	if m.Work() != (Work{}) {
		t.Fatal("None must report no work")
	}
	if m.Predictor() != bpred.Predictor(u) {
		t.Fatal("None must expose the raw unit")
	}
}

func TestSMARTSWarmsSelectedStructures(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindSMARTS, Cache: true}.New(h, u)
	m.BeginSkip(2)
	observe1(m, memInst(0x400000, 0x1000, false))
	observe1(m, branchInst(0x400004, true))
	m.EndSkip()
	if h.TotalUpdates() == 0 {
		t.Fatal("S$ must warm caches")
	}
	if u.Updates() != 0 {
		t.Fatal("S$ must not train the predictor")
	}

	h2, u2 := testEnv()
	m2 := Spec{Kind: KindSMARTS, BPred: true}.New(h2, u2)
	m2.BeginSkip(2)
	observe1(m2, memInst(0x400000, 0x1000, false))
	observe1(m2, branchInst(0x400004, true))
	m2.EndSkip()
	if h2.TotalUpdates() != 0 {
		t.Fatal("SBP must not warm caches")
	}
	if u2.Updates() == 0 {
		t.Fatal("SBP must train the predictor")
	}
}

func TestSMARTSCollapsesFetchesPerLine(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindSMARTS, Cache: true}.New(h, u)
	m.BeginSkip(16)
	// 16 sequential instructions within one 64-byte line: one I-warm, and
	// crossing into the next line adds one more.
	for pc := uint64(0x400000); pc < 0x400000+17*4; pc += 4 {
		observe1(m, &trace.DynInst{PC: pc, NextPC: pc + 4, Op: isa.OpAdd})
	}
	if got := m.Work().WarmOps; got != 2 {
		t.Fatalf("warm ops = %d, want 2 (one per line)", got)
	}
}

func TestFixedPeriodWarmsOnlyTail(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindFixed, Percent: 20, BPred: true}.New(h, u)
	_ = h
	const n = 1000
	m.BeginSkip(n)
	for i := 0; i < n; i++ {
		observe1(m, branchInst(0x400000+uint64(i%8)*4, i%2 == 0))
	}
	m.EndSkip()
	// Exactly the last 20% of branches are applied.
	if got := m.Work().WarmOps; got != n/5 {
		t.Fatalf("warm ops = %d, want %d", got, n/5)
	}
}

func TestReverseCacheOnlyLogsAndReconstructs(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, Cache: true}.New(h, u)
	m.BeginSkip(3)
	observe1(m, memInst(0x400000, 0x1000, false))
	observe1(m, memInst(0x400004, 0x2000, true))
	observe1(m, branchInst(0x400008, true))
	if h.TotalUpdates() != 0 {
		t.Fatal("reverse must not touch caches during logging")
	}
	m.EndSkip()
	if h.TotalUpdates() == 0 {
		t.Fatal("reconstruction must have applied updates")
	}
	if !h.L1D.Probe(0x1000) || !h.L1D.Probe(0x2000) {
		t.Fatal("logged data lines missing after reconstruction")
	}
	w := m.Work()
	// 1 fetch line + 2 data refs logged; the branch is not (cache-only).
	if w.LoggedRecords != 3 {
		t.Fatalf("logged = %d, want 3", w.LoggedRecords)
	}
	if u.Updates() != 0 {
		t.Fatal("R$ must leave the predictor stale")
	}
}

func TestReverseBPredExposesWrappedPredictor(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, BPred: true}.New(h, u)
	if m.Predictor() == bpred.Predictor(u) {
		t.Fatal("RBP must expose the reconstruction wrapper")
	}
	m.BeginSkip(2)
	observe1(m, branchInst(0x400000, true))
	observe1(m, branchInst(0x400040, false))
	m.EndSkip()
	// Probing must work and reconstruct on demand without panicking.
	m.Predictor().Predict(0x400000, isa.ClassBranch)
	if m.Work().LoggedRecords != 2 {
		t.Fatalf("logged = %d, want 2", m.Work().LoggedRecords)
	}
}

func TestReverseLogDiscardedBetweenRegions(t *testing.T) {
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, Cache: true}.New(h, u).(*reverse)
	m.BeginSkip(1)
	observe1(m, memInst(0x400000, 0x1000, false))
	m.EndSkip()
	m.BeginSkip(1)
	if m.cur.log.Len() != 0 {
		t.Fatal("log must be discarded at the next skip region")
	}
}

func TestSpecByLabel(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Matrix() {
		label := s.Label()
		if seen[label] {
			t.Fatalf("label %q not unique in Matrix; SpecByLabel would be ambiguous", label)
		}
		seen[label] = true
		got, err := SpecByLabel(label)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != s {
			t.Fatalf("%s: round trip changed spec: %+v vs %+v", label, got, s)
		}
	}
	if _, err := SpecByLabel("nonsense"); err == nil {
		t.Fatal("unknown label must error")
	} else if !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("error should name the unknown label: %v", err)
	}
}

// TestFuncWarmTrackerInitializedEagerly pins the Spec.New construction
// contract: functional-warming methods get their line tracker at build
// time, so the very first observed instruction counts one line fetch
// without any lazy-initialization sniffing on the hot path.
func TestFuncWarmTrackerInitializedEagerly(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindSMARTS, Cache: true},
		{Kind: KindFixed, Percent: 100, Cache: true},
	} {
		h, u := testEnv()
		m := spec.New(h, u)
		m.BeginSkip(1)
		d := trace.DynInst{PC: 0x1000, NextPC: 0x1004}
		observe1(m, &d)
		if w := m.Work(); w.WarmOps != 1 {
			t.Errorf("%s: first instruction warm ops = %d, want 1 line fetch", spec.Label(), w.WarmOps)
		}
	}
}

// TestTable2IsTwoTypes pins the package's shape: every method is a direction
// and a window, so every Matrix spec builds one of two types, with the window
// the label states — None 0%, FP and R$/R$BP their percentage, the S family
// and RBP 100%.
func TestTable2IsTwoTypes(t *testing.T) {
	const n = 1000
	for _, s := range Matrix() {
		label, want := s.Label(), 100
		if label == "None" {
			want = 0
		} else if i := strings.Index(label, "("); i >= 0 {
			if _, err := fmt.Sscanf(label[i:], "(%d%%)", &want); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		h, u := testEnv()
		m := s.New(h, u)
		m.BeginSkip(n)
		var cur *regionCapture
		switch m := m.(type) {
		case *forward:
			if s.Kind != KindReverse {
				cur = m.cur
			}
		case *reverse:
			if s.Kind == KindReverse {
				cur = m.cur
			}
		}
		if cur == nil {
			t.Errorf("%s builds a %T", label, m)
		} else if got := cur.threshold; got != n-uint64(want)*n/100 {
			t.Errorf("%s: a threshold of %d in %d", label, got, n)
		}
	}
}

// TestSpecValidate pins the one meaning of an out-of-range percentage — it is
// refused, with an error naming the field — and the refusal of every field a
// kind does not read.
func TestSpecValidate(t *testing.T) {
	for _, s := range Matrix() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Label(), err)
		}
	}
	cases := []struct {
		spec Spec
		want string // "" accepts
	}{
		{Spec{Kind: KindFixed, Percent: 0, Cache: true}, ""},
		{Spec{Kind: KindFixed, Percent: 100, BPred: true}, ""},
		{Spec{Kind: KindReverse, BPred: true}, ""},
		{Spec{Kind: KindNone, Percent: 150}, "Percent"}, // None and SMARTS never read Percent
		{Spec{Kind: KindSMARTS, Percent: 37, Cache: true, BPred: true}, "Percent"},
		{Spec{Kind: KindNone, Cache: true}, "Cache"},
		{Spec{Kind: KindFixed, Percent: 20}, "neither"},
		{Spec{Kind: KindSMARTS}, "neither"},
		{Spec{Kind: KindReverse, Percent: 20}, "neither"},
		{Spec{Kind: KindFixed, Percent: 150, Cache: true}, "Percent"},
		{Spec{Kind: KindFixed, Percent: -1, Cache: true}, "Percent"},
		{Spec{Kind: KindReverse, Percent: 101, Cache: true}, "Percent"},
		{Spec{Kind: KindReverse, Percent: -20, BPred: true}, "Percent"},
		{Spec{Kind: Kind(9), Cache: true}, "Kind"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", c.spec, err, c.want)
		}
	}
	// The backstop behind Validate: an oversize window is the whole region,
	// not a threshold wrapped past its end (which warmed nothing).
	h, u := testEnv()
	m := Spec{Kind: KindFixed, Percent: 150, Cache: true}.New(h, u).(*forward)
	m.BeginSkip(1000)
	if got := m.cur.threshold; got != 0 {
		t.Errorf("Percent 150: threshold %d, want the whole region", got)
	}
}

// TestValidLabelsUnique enumerates every combination of Spec's fields and holds
// Label to naming each valid spec once: two simulations never print the same
// label, and a label never stands for two job hashes.
func TestValidLabelsUnique(t *testing.T) {
	seen := map[string]Spec{}
	for k := KindNone; k <= KindReverse; k++ {
		for _, p := range []int{0, 20, 37, 100} {
			for i := 0; i < 4; i++ {
				s := Spec{Kind: k, Percent: p, Cache: i&1 != 0, BPred: i&2 != 0}
				if s.Validate() != nil {
					continue
				}
				if prev, ok := seen[s.Label()]; ok {
					t.Errorf("%+v and %+v share the label %q", prev, s, s.Label())
				}
				seen[s.Label()] = s
			}
		}
	}
}
