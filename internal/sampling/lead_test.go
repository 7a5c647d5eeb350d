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

// countingMethod counts, per region, the instructions its method observes:
// through ObserveSkipBatch in place, through its captures' ObserveSkipBatch
// when sharded (handed over at adoption). With leadless set it answers every
// SkipLead with 0, so the walker hands the whole cold phase to
// ObserveSkipBatch and the window's cut falls to the method's own tail: the
// reference a run with a record-free lead must match.
type countingMethod struct {
	warmup.Method
	leadless bool
	observed []uint64
}

type countingCapture struct {
	warmup.RegionCapture
	leadless bool
	observed uint64
}

func (m *countingMethod) SizeRegions(longest uint64) {
	if rs, ok := m.Method.(warmup.RegionSizer); ok {
		rs.SizeRegions(longest)
	}
}

func (m *countingMethod) BeginSkip(expectedLen uint64) {
	m.observed = append(m.observed, 0)
	m.Method.BeginSkip(expectedLen)
}

func (m *countingMethod) SkipLead() uint64 {
	if m.leadless {
		return 0
	}
	return m.Method.SkipLead()
}

func (m *countingMethod) ObserveSkipBatch(ds []trace.DynInst) {
	m.observed[len(m.observed)-1] += uint64(len(ds))
	m.Method.ObserveSkipBatch(ds)
}

func (m *countingMethod) NewRegionCapture(region int, expectedLen uint64) warmup.RegionCapture {
	return &countingCapture{RegionCapture: m.Method.NewRegionCapture(region, expectedLen), leadless: m.leadless}
}

func (m *countingMethod) AdoptRegion(c warmup.RegionCapture) {
	cc := c.(*countingCapture)
	m.observed[len(m.observed)-1] = cc.observed
	m.Method.AdoptRegion(cc.RegionCapture)
}

func (c *countingCapture) SkipLead() uint64 {
	if c.leadless {
		return 0
	}
	return c.RegionCapture.SkipLead()
}

func (c *countingCapture) ObserveSkipBatch(ds []trace.DynInst) {
	c.observed += uint64(len(ds))
	c.RegionCapture.ObserveSkipBatch(ds)
}

// TestSkipLeadWindowContract pins what the walker hands a method now that it
// runs each cold phase's lead without records: per region, None observes no
// instruction, S$BP all of them, and FP (p%) and R$BP (p%) exactly the
// newest p% — in place and through captures at Shards: 2. Every result and
// work count equals the leadless run's.
func TestSkipLeadWindowContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	// Cold phases of 0, under a batch, odd, and many batches long.
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
		for _, shards := range []int{1, 2} {
			run := func(leadless bool) (*RunResult, []uint64) {
				var cm *countingMethod
				mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
					cm = &countingMethod{Method: spec.New(h, u), leadless: leadless}
					return cm
				}
				res, err := RunRegions(p, DefaultMachine(), regions, mk, Options{Shards: shards})
				if err != nil {
					t.Fatalf("%s shards=%d leadless=%v: %v", c.label, shards, leadless, err)
				}
				return res, cm.observed
			}
			got, observed := run(false)
			want, _ := run(true)
			name := fmt.Sprintf("%s shards=%d", c.label, shards)
			for i, cold := range colds {
				if wantObs := cold * c.percent / 100; observed[i] != wantObs {
					t.Errorf("%s: region %d (cold %d) observed %d instructions, want %d", name, i, cold, observed[i], wantObs)
				}
			}
			if !reflect.DeepEqual(got.Clusters, want.Clusters) || got.Work != want.Work ||
				got.FuncInstructions != want.FuncInstructions || got.HotInstructions != want.HotInstructions {
				t.Errorf("%s: results differ from the leadless walker's:\ngot  %+v\nwant %+v", name, got.Work, want.Work)
			}
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
// the phase got through — whichever method, in place or sharded.
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
		for _, shards := range []int{1, 2} {
			res, err := RunRegions(p, DefaultMachine(), regions, spec.New, Options{Shards: shards})
			if err == nil || err.Error() != want || res != nil {
				t.Errorf("%s shards=%d: got %v, %v; want %q", label, shards, res, err, want)
			}
		}
	}
}
