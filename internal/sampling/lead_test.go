package sampling

import (
	"fmt"
	"reflect"
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

// countingMethod counts, per region, the instructions its method observes
// through ObserveWindow. countingSizer is the
// wrapper of a method that is a warmup.RegionSizer, so that the walker treats
// the wrapped method as it would the bare one.
type countingMethod struct {
	warmup.Method
	observed []uint64
}

type countingSizer struct{ *countingMethod }

func (m countingSizer) SizeRegions(longest uint64) {
	m.Method.(warmup.RegionSizer).SizeRegions(longest)
}

// counting wraps m.
func counting(m warmup.Method) (*countingMethod, warmup.Method) {
	cm := &countingMethod{Method: m}
	if _, ok := m.(warmup.RegionSizer); ok {
		return cm, countingSizer{cm}
	}
	return cm, cm
}

func (m *countingMethod) BeginSkip(expectedLen uint64) {
	m.observed = append(m.observed, 0)
	m.Method.BeginSkip(expectedLen)
}

func (m *countingMethod) ObserveWindow(w *trace.Window) {
	m.observed[len(m.observed)-1] += w.Seen
	m.Method.ObserveWindow(w)
}

// TestSkipLeadWindowContract pins what the walker hands a method now that it
// runs each cold phase's lead without records: per region, None observes no
// instruction, S$BP all of them, and FP (p%) and R$BP (p%) exactly the
// newest p% — through ObserveWindow from one producer and from two.
// Every result and work count equals the per-instruction reference's.
func TestSkipLeadWindowContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	// Cold phases of 0, under a batch, odd, many batches and several
	// hand-offs long.
	regions := []Region{{Start: 0, Size: 500}, {Start: 500, Size: 700}, {Start: 1900, Size: 500}, {Start: 9_437, Size: 800}, {Start: 60_001, Size: 600}, {Start: 60_601, Size: 400}}
	var colds []uint64
	var pos uint64
	for _, r := range regions {
		colds, pos = append(colds, r.Start-pos), r.Start+r.Size
	}
	for _, c := range []struct {
		label   string
		percent uint64
	}{{"None", 0}, {"S$BP", 100}, {"FP (40%)", 40}, {"R$BP (20%)", 20}, {"R$BP (80%)", 80}} {
		spec, err := warmup.SpecByLabel(c.label)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runRegionsScalar(p, DefaultMachine(), regions, spec)
		if err != nil {
			t.Fatal(err)
		}
		var cm *countingMethod
		mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
			var m warmup.Method
			cm, m = counting(spec.New(h, u))
			return m
		}
		got, err := RunRegions(p, DefaultMachine(), regions, mk, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		for i, cold := range colds {
			if wantObs := cold * c.percent / 100; cm.observed[i] != wantObs {
				t.Errorf("%s: region %d (cold %d) observed %d instructions, want %d", c.label, i, cold, cm.observed[i], wantObs)
			}
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || got.Work != want.Work ||
			got.FuncInstructions != want.FuncInstructions || got.HotInstructions != want.HotInstructions {
			t.Errorf("%s: results differ from the per-instruction reference's:\ngot  %+v\nwant %+v", c.label, got.Work, want.Work)
		}
	}
}

// haltingProgram counts to n and halts.
func haltingProgram(n int64) *prog.Program {
	b := prog.NewBuilder("halting")
	b.Li(2, n)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Branch(isa.OpBlt, 1, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSkipLeadHalt: a workload that halts inside a lead fails the run with
// the error a halt in an observed cold phase gives, naming the instructions
// the phase got through — whichever method.
func TestSkipLeadHalt(t *testing.T) {
	p := haltingProgram(5000)
	ran, err := funcsim.New(p).Skip(1 << 20)
	if err != nil || ran > 20_000 {
		t.Fatalf("the program ran %d instructions: %v", ran, err)
	}
	// The last region's cold phase, from 9,200, is where the program halts:
	// inside the lead of all but S$BP, which has none.
	regions := []Region{{Start: 1000, Size: 200}, {Start: 9_000, Size: 200}, {Start: 20_000, Size: 200}}
	want := fmt.Sprintf("sampling: workload halted after %d skipped instructions", ran-9_200)
	for _, label := range []string{"None", "FP (40%)", "S$BP", "R$BP (20%)"} {
		spec, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRegions(p, DefaultMachine(), regions, spec.New, Options{})
		if err == nil || err.Error() != want || res != nil {
			t.Errorf("%s: got %v, %v; want %q", label, res, err, want)
		}
	}
}
