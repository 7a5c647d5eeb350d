package sampling

import (
	"errors"
	"fmt"
	"hash/maphash"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"rsr/internal/core"
	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// testTraces is a TraceStore that counts the traces it hands out. It builds
// a trace's reverse plan for a geometry when first asked for it, unless
// noPlans is set, and counts the plans it builds and hands out.
type testTraces struct {
	mu       sync.Mutex
	traces   map[string]*Trace
	noPlans  bool
	plans    map[PlanGeom]*TracePlan
	replayed int
	built    int
	cut      int
}

func (s *testTraces) LoadTrace(key string) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.traces[key]
	if t != nil {
		s.replayed++
	}
	return t
}

func (s *testTraces) LoadPlan(key string, m MachineConfig) *TracePlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.traces[key]
	if t == nil || s.noPlans {
		return nil
	}
	g := PlanGeomOf(m)
	p := s.plans[g]
	if p == nil {
		var err error
		if p, err = PlanTrace(t, m, nil); err != nil {
			panic(err)
		}
		if s.plans == nil {
			s.plans = make(map[PlanGeom]*TracePlan)
		}
		s.plans[g] = p
		s.built++
	}
	s.cut++
	return p
}

// replaySpecs are the specs the identity tests replay: the paper's matrix,
// then FP and R$BP at the edges of the percentage range and between them.
func replaySpecs() []warmup.Spec {
	specs := warmup.Matrix()
	for _, p := range []int{0, 1, 33, 99, 100} {
		specs = append(specs,
			warmup.Spec{Kind: warmup.KindFixed, Percent: p, Cache: true, BPred: true},
			warmup.Spec{Kind: warmup.KindReverse, Percent: p, Cache: true, BPred: true})
	}
	return specs
}

func mustSpec(t testing.TB, label string) warmup.Spec {
	t.Helper()
	s, err := warmup.SpecByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordTrace records the trace of regions of p and returns a store that
// holds it under "k".
func recordTrace(t *testing.T, p *prog.Program, regions []Region) *testTraces {
	t.Helper()
	tr, err := RecordTrace(p, DefaultMachine(), regions, 1<<40, nil)
	if err != nil {
		t.Fatalf("recording: %v", err)
	}
	return &testTraces{traces: map[string]*Trace{"k": tr}}
}

// TestReplayMatchesFresh is the functional trace's contract: for every spec,
// a run that replays the placement's trace equals a fresh run in every field
// but the wall clock: clusters, work, functional and hot instruction counts.
// A reverse spec replays twice, cutting the placement's reverse plan and
// without one, logging and planning its windows; every reverse spec cuts the
// one plan the first built. The placement's windows start inside a fetch line
// as well as on a line crossing, so both ways of cutting a window's first
// fetch are taken.
func TestReplayMatchesFresh(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	regions, err := Regimen{ClusterSize: 2000, NumClusters: 10}.Regions(400_000, 2007)
	if err != nil {
		t.Fatal(err)
	}
	store := recordTrace(t, p, regions)
	midLine, onCrossing := 0, 0
	for _, part := range store.traces["k"].parts {
		for _, m := range part.marks[1:] {
			if m.haveLine && m.pc&^uint64(DefaultMachine().Hier.L1I.LineBytes-1) == m.line {
				midLine++
			} else {
				onCrossing++
			}
		}
	}
	if midLine == 0 || onCrossing == 0 {
		t.Fatalf("window starts: %d inside a fetch line, %d on a crossing; the test needs both", midLine, onCrossing)
	}
	unplanned := &testTraces{traces: store.traces, noPlans: true}
	for _, spec := range replaySpecs() {
		fresh, err := RunRegions(p, DefaultMachine(), regions, spec.New, Options{})
		if err != nil {
			t.Fatalf("%s fresh: %v", spec.Label(), err)
		}
		stores := []*testTraces{store}
		if spec.Kind == warmup.KindReverse {
			stores = append(stores, unplanned)
		}
		for _, s := range stores {
			before, cut := s.replayed, s.cut
			got, err := RunRegions(p, DefaultMachine(), regions, spec.New, Options{Traces: s, TraceKey: "k"})
			if err != nil {
				t.Fatalf("%s replayed: %v", spec.Label(), err)
			}
			if s.replayed != before+1 {
				t.Fatalf("%s: the run did not replay the trace", spec.Label())
			}
			if wantCut := spec.Kind == warmup.KindReverse && !s.noPlans; (s.cut == cut+1) != wantCut {
				t.Fatalf("%s: cut the plan %d times, want %v", spec.Label(), s.cut-cut, wantCut)
			}
			if !reflect.DeepEqual(normalize(got), normalize(fresh)) {
				t.Errorf("%s (plans %v): replayed run differs from a fresh one:\n got %+v\nwant %+v", spec.Label(), !s.noPlans, got, fresh)
			}
		}
	}
	if store.built != 1 {
		t.Errorf("%d plans built for one placement and geometry", store.built)
	}
	// The replay executes nothing: handed twolf's trace, a run of another
	// program returns twolf's results. A trace recorded for other regions or
	// another L1I line size is not replayed.
	spec := mustSpec(t, "R$BP (20%)")
	want, _ := RunRegions(p, DefaultMachine(), regions, spec.New, Options{})
	got, err := RunRegions(haltingProgram(10), DefaultMachine(), regions, spec.New, Options{Traces: store, TraceKey: "k"})
	if err != nil || !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("a replay of another program's trace: %v", err)
	}
	wide := DefaultMachine()
	wide.Hier.L1I.LineBytes *= 2
	before := store.replayed
	if _, err := RunRegions(p, wide, regions, spec.New, Options{Traces: store, TraceKey: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunRegions(p, DefaultMachine(), regions[1:], spec.New, Options{Traces: store, TraceKey: "k"}); err != nil {
		t.Fatal(err)
	}
	if store.replayed != before+2 {
		t.Fatal("the store was not asked")
	}
}

// traceSum hashes t's parts and plan's cuts as they lie in memory: each one's
// own bytes — a part's marks among them — and the arrays its slices hold, a
// part's cold log and hot phase, a cut's plans.
func traceSum(t *Trace, plan *TracePlan, seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	for i, part := range t.parts {
		for _, v := range []reflect.Value{reflect.ValueOf(part), reflect.ValueOf(plan.parts[i])} {
			h.Write(unsafe.Slice((*byte)(v.UnsafePointer()), v.Type().Elem().Size()))
			writeArrays(&h, v.Elem())
		}
	}
	return h.Sum64()
}

// writeArrays writes to h the arrays of the slices among the fields of v, a
// struct, and of its struct fields; no element holds a pointer.
func writeArrays(h *maphash.Hash, v reflect.Value) {
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			h.Write(unsafe.Slice((*byte)(f.UnsafePointer()), uintptr(f.Len())*f.Type().Elem().Size()))
		case reflect.Struct:
			writeArrays(h, f)
		}
	}
}

// TestReplayNeverWritesTrace: a replay reads its trace and plan in place and
// writes neither. Every spec of the paper's matrix replays one placement, a
// reverse spec with and without the plan, and after each run the trace and
// plan hash as they did when made.
func TestReplayNeverWritesTrace(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	regions, err := Regimen{ClusterSize: 2000, NumClusters: 10}.Regions(400_000, 2007)
	if err != nil {
		t.Fatal(err)
	}
	store := recordTrace(t, p, regions)
	tr, plan := store.traces["k"], store.LoadPlan("k", DefaultMachine())
	seed := maphash.MakeSeed()
	want := traceSum(tr, plan, seed)
	unplanned := &testTraces{traces: store.traces, noPlans: true}
	for _, spec := range warmup.Matrix() {
		for _, s := range []*testTraces{store, unplanned} {
			before := s.replayed
			if _, err := RunRegions(p, DefaultMachine(), regions, spec.New, Options{Traces: s, TraceKey: "k"}); err != nil {
				t.Fatalf("%s: %v", spec.Label(), err)
			}
			if s.replayed != before+1 {
				t.Fatalf("%s: the run did not replay the trace", spec.Label())
			}
			if traceSum(tr, plan, seed) != want {
				t.Fatalf("%s (plans %v): the replay wrote its trace or plan", spec.Label(), !s.noPlans)
			}
		}
	}
}

// TestReplayFailuresStoreNothing: a workload that halts inside a cold phase,
// one that halts inside a hot phase and one that faults leave RecordTrace
// without a trace, and a run handed a store without one ends as a plain run
// does, with the same error text.
func TestReplayFailuresStoreNothing(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gcc := w.Build()
	halting := haltingProgram(5000) // halts after about 10,000 instructions
	for _, c := range []struct {
		name    string
		p       *prog.Program
		regions []Region
	}{
		{"halt in a cold phase", halting, []Region{{Start: 1000, Size: 200}, {Start: 9_000, Size: 200}, {Start: 20_000, Size: 200}}},
		{"halt in a hot phase", halting, []Region{{Start: 1000, Size: 200}, {Start: 9_900, Size: 500}, {Start: 20_000, Size: 200}}},
		{"halt in the last hot phase", halting, []Region{{Start: 1000, Size: 200}, {Start: 9_900, Size: 500}}},
		{"fault", faultAt(t, gcc, 30_000), []Region{{Start: 1000, Size: 500}, {Start: 40_000, Size: 500}}},
	} {
		if tr, err := RecordTrace(c.p, DefaultMachine(), c.regions, 1<<40, nil); tr != nil || err == nil {
			t.Errorf("%s: recorded %v, %v", c.name, tr, err)
		}
		for _, label := range []string{"None", "FP (40%)", "S$BP", "R$BP (20%)"} {
			spec := mustSpec(t, label)
			want, wantErr := RunRegions(c.p, DefaultMachine(), c.regions, spec.New, Options{})
			store := &testTraces{}
			got, err := RunRegions(c.p, DefaultMachine(), c.regions, spec.New, Options{Traces: store, TraceKey: "k"})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Errorf("%s, %s: got %v, %v; want %v, %v", c.name, label, got, err, want, wantErr)
			}
		}
	}
	// A canceled recording and one over its limit give up as well.
	regions := []Region{{Start: 1000, Size: 500}, {Start: 20_000, Size: 500}}
	canceled := make(chan struct{})
	close(canceled)
	if tr, err := RecordTrace(gcc, DefaultMachine(), regions, 1<<40, canceled); tr != nil || !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled: recorded %v, %v", tr, err)
	}
	if tr, err := RecordTrace(gcc, DefaultMachine(), regions, 1000, nil); tr != nil || err == nil {
		t.Errorf("over the limit: recorded %v, %v", tr, err)
	}
}

// fuzzProgram is funcsim's fuzz decoder (FuzzRunBatchMatchesStep's), which a
// test of this package cannot import: four bytes per instruction — opcode
// selector, rd, rs1 and an argument byte serving as rs2, immediate or target
// — every opcode reachable and one undefined, direct targets clamped to the
// program, indirect ones loaded from a data word that may land anywhere, and
// a halt after the decoded instructions.
func fuzzProgram(data []byte) *prog.Program {
	n := min(len(data)/4, 256)
	label := func(i int) string { return fmt.Sprintf("L%d", i) }
	b := prog.NewBuilder("fuzz")
	b.Li(1, int64(prog.DataBase))
	for i := 0; i < n; i++ {
		sel, rdByte, rs1Byte, arg := data[4*i], data[4*i+1], data[4*i+2], data[4*i+3]
		op := isa.Op(int(sel) % (isa.NumOps + 1))
		rd, rs1, rs2 := rdByte%isa.NumRegs, rs1Byte%isa.NumRegs, arg%isa.NumRegs
		target := int(arg) % (n + 1)
		b.Label(label(i))
		switch {
		case op.IsConditional():
			b.Branch(op, rs1, rs2, label(target))
		case op == isa.OpJmp:
			b.Jmp(label(target))
		case op == isa.OpCall:
			b.Call(rd, label(target))
		default:
			b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: int64(int8(arg)) * 8})
		}
		word := prog.DataBase + 8*uint64(i)
		switch rdByte >> 6 {
		case 0, 1:
			b.WordLabel(word, label(target))
		case 2:
			b.Word(word, prog.PCOf(target)+1)
		default:
			b.Word(word, uint64(arg)<<(rdByte&31))
		}
	}
	b.Label(label(n))
	b.Halt()
	return b.MustBuild()
}

// reverseSpec decodes a valid reverse spec from two bytes: its structures
// (both when the byte names neither) and its percentage.
func reverseSpec(structs, percent byte) warmup.Spec {
	s := warmup.Spec{Kind: warmup.KindReverse, Percent: int(percent) % 101, Cache: structs&4 != 0, BPred: structs&8 != 0}
	if !s.Cache && !s.BPred {
		s.Cache, s.BPred = true, true
	}
	return s
}

// FuzzReplayMatchesFresh holds a replayed run to a fresh one on generated
// programs — looping, halting early, faulting — over a generated sorted
// region list: runs under two reverse specs at different percentages that
// replay the placement's trace — the first building its reverse plan and
// cutting it, the second cutting the same plan, and the first once more
// logging and planning its windows without a plan — each end exactly as a run
// with no store, results or error text, and a recording fails exactly when a
// run of the placement meets a halt or fault before its last region's end.
//
//	[0] region count, 1..4   [1:1+3k] per region: gap (two bytes) and size
//	[next 4] two specs, structures and percentage each   [rest] the program
func FuzzReplayMatchesFresh(f *testing.F) {
	loop := []byte{byte(isa.OpLd), 2, 1, 0, byte(isa.OpAddi), 1, 1, 8, byte(isa.OpSt), 0, 1, 2, byte(isa.OpBne), 0, 2, 0, byte(isa.OpJmp), 0, 0, 0}
	f.Add(append([]byte{3, 40, 0, 30, 7, 1, 90, 200, 0, 9, 15, 20, 14, 99}, loop...))
	f.Add(append([]byte{2, 0, 0, 1, 255, 3, 255, 7, 0, 3, 13, 33}, loop...))
	f.Add([]byte{1, 5, 0, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [17]byte
		k := copy(hdr[:], data)
		nreg := 1 + int(hdr[0])%4
		var regions []Region
		var pos uint64
		for i := 0; i < nreg; i++ {
			g := hdr[1+3*i:]
			start := pos + uint64(g[0]) + uint64(g[1]&1)<<8
			regions = append(regions, Region{Start: start, Size: 1 + uint64(g[2])%200})
			pos = start + regions[i].Size
		}
		b := hdr[1+3*nreg : 5+3*nreg]
		specs := []warmup.Spec{reverseSpec(b[0], b[1]), reverseSpec(b[2], b[3])}
		if specs[1].Percent == specs[0].Percent {
			specs[1].Percent = (specs[0].Percent + 1 + int(b[3])%100) % 101
		}
		p := fuzzProgram(data[min(k, 5+3*nreg):])
		tr, err := RecordTrace(p, DefaultMachine(), regions, 1<<40, nil)
		if (tr == nil) != (err != nil) {
			t.Fatalf("recording: %v, %v", tr, err)
		}
		// A plain run meets every halt and fault a recording meets but one in
		// the last hot phase, which ends the run there.
		_, perr := RunRegions(p, DefaultMachine(), regions, warmup.Spec{Kind: warmup.KindNone}.New, Options{})
		if tr != nil && perr != nil || tr == nil && perr == nil && !strings.Contains(err.Error(), "hot phase") {
			t.Fatalf("recording: %v; a plain run: %v", err, perr)
		}
		store := &testTraces{traces: map[string]*Trace{"k": tr}}
		unplanned := &testTraces{traces: store.traces, noPlans: true}
		for i, s := range []*testTraces{store, store, unplanned} {
			spec := specs[i%2]
			got, gotErr := RunRegions(p, DefaultMachine(), regions, spec.New, Options{Traces: s, TraceKey: "k"})
			want, wantErr := RunRegions(p, DefaultMachine(), regions, spec.New, Options{})
			if g, w := fmt.Sprintf("%+v %v", normalize(got), gotErr), fmt.Sprintf("%+v %v", normalize(want), wantErr); g != w {
				t.Fatalf("replaying under %s (plans %v): got %s, want %s", spec.Label(), !s.noPlans, g, w)
			}
		}
		if tr != nil && (store.replayed != 2 || unplanned.replayed != 1 || store.built != 1 || store.cut != 2) {
			t.Fatalf("%d and %d runs replayed the trace, %d plans built, %d cut", store.replayed, unplanned.replayed, store.built, store.cut)
		}
	})
}

// TestReplayCutsEqualWindowPlans: on recorded traces of all nine workloads,
// each region's reverse plan cut at every percentage's mark equals the plans
// the window opening there makes of its own log — the trace's records from
// the mark on, after the fetch the window logs where it opens if the log does
// not hold it: the cache plan ref for ref and its scanned count, the records
// logged, the RAS fills, and the histories once the overlay's stale prefix is
// left out of the cut's, which the window's plan has as zero.
func TestReplayCutsEqualWindowPlans(t *testing.T) {
	m := DefaultMachine()
	geom := core.PredGeom{HistoryBits: m.Pred.Gshare.HistoryBits, RASDepth: m.Pred.RAS.Depth}
	planner := core.NewCachePlanner(m.Hier)
	regions, err := Regimen{ClusterSize: 500, NumClusters: 3}.Regions(60_000, 2007)
	if err != nil {
		t.Fatal(err)
	}
	var own, cutCache core.CacheReconPlan
	var ownPred, cutPred core.PredReconPlan
	opened := map[bool]int{} // windows with an opening fetch, by whether it mutates
	for _, w := range workload.All() {
		tr, err := RecordTrace(w.Build(), m, regions, 1<<40, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plan, err := PlanTrace(tr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ri, part := range tr.parts {
			cold := part.marks[0].at
			for pct := 0; pct <= 100; pct++ {
				a := &part.marks[pct]
				var window []trace.MemRecord
				if a.opens(cold, tr.lineMask) {
					window = append(window, trace.MemRecord{Addr: a.pc, IsInstr: true})
				}
				window = append(window, part.log.Mem[a.mem:]...)
				branches := part.log.Branches[a.br:]
				if a.at == cold && len(window)+len(branches) != 0 {
					t.Fatalf("%s region %d: an empty %d%% window holds records", w.Name, ri, pct)
				}
				core.PlanCacheRecon(planner, window, &own)
				core.PlanPredRecon(geom, branches, &ownPred)
				nm, nb := plan.parts[ri].Cut(pct, &cutCache, &cutPred)
				if a.opens(cold, tr.lineMask) {
					opened[cutCache.Open.L1 || cutCache.Open.L2]++
				}
				refs := cutCache.Refs
				if cutCache.Open.L1 || cutCache.Open.L2 {
					refs = append(slices.Clone(refs), cutCache.Open)
				}
				where := fmt.Sprintf("%s region %d at %d%%", w.Name, ri, pct)
				if !slices.Equal(refs, own.Refs) || cutCache.ScannedRefs != own.ScannedRefs || nm != len(window) || nb != len(branches) {
					t.Fatalf("%s: cut %d refs, %d scanned, %d+%d logged; the window's own %d refs, %d scanned, %d+%d logged",
						where, len(refs), cutCache.ScannedRefs, nm, nb, len(own.Refs), own.ScannedRefs, len(window), len(branches))
				}
				if !slices.Equal(cutPred.RASFills, ownPred.RASFills) || !slices.Equal(cutPred.Suffix, ownPred.Suffix) {
					t.Fatalf("%s: RAS fills %v, the window's own %v", where, cutPred.RASFills, ownPred.RASFills)
				}
				k := 0 // conditionals before record i, up to HistoryBits
				for i := range branches {
					if branches[i].Class != isa.ClassBranch {
						continue
					}
					if got := cutPred.GHRAt[i] & (1<<k - 1); got != ownPred.GHRAt[i] {
						t.Fatalf("%s: history before record %d %#x, the window's own %#x", where, i, got, ownPred.GHRAt[i])
					}
					k = min(k+1, geom.HistoryBits)
				}
				if got := cutPred.FinalGHR & (1<<k - 1); got != ownPred.FinalGHR {
					t.Fatalf("%s: final history %#x, the window's own %#x", where, got, ownPred.FinalGHR)
				}
			}
		}
	}
	if opened[true] == 0 || opened[false] == 0 {
		t.Errorf("opening fetches: %d mutate, %d do not; the test needs both", opened[true], opened[false])
	}
}

// TestReplayTraceBoundedByWhatItHolds: RecordTrace gives up on what a trace
// holds, not on the densest it could be: a limit between a placement's real
// size and its worst case (two memory records and a branch per cold
// instruction) records it, and a limit a byte under its real size does not.
func TestReplayTraceBoundedByWhatItHolds(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	regions, err := Regimen{ClusterSize: 1000, NumClusters: 5}.Regions(200_000, 2007)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(p, DefaultMachine(), regions, 1<<40, nil)
	if err != nil {
		t.Fatal(err)
	}
	var worst, pos int64
	for _, r := range regions {
		worst += (int64(r.Start)-pos)*int64(2*memRecordBytes+branchRecordBytes) + int64(r.Size*uint64(hotInstrBytes)+uint64(partBytes))
		pos = int64(r.Start + r.Size)
	}
	if tr.Bytes() >= worst {
		t.Fatalf("the trace holds %d bytes, its worst case %d", tr.Bytes(), worst)
	}
	if got, err := RecordTrace(p, DefaultMachine(), regions, (tr.Bytes()+worst)/2, nil); err != nil || got.Bytes() != tr.Bytes() {
		t.Errorf("under a limit between %d and %d bytes: %v", tr.Bytes(), worst, err)
	}
	if got, err := RecordTrace(p, DefaultMachine(), regions, tr.Bytes()-1, nil); got != nil || !errors.Is(err, ErrTraceTooLarge) {
		t.Errorf("under a limit a byte short: %v, %v", got, err)
	}
}
