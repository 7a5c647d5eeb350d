package ooo

import (
	"errors"
	"testing"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// funcSource adapts a per-instruction pull closure to Source, so the tests
// can feed the model exactly one pull per instruction, in fetch order.
type funcSource struct {
	next func() (trace.DynInst, bool)
	buf  [1]trace.DynInst
}

func (f *funcSource) Fill(max uint64) []trace.DynInst {
	if max == 0 {
		return nil
	}
	d, ok := f.next()
	if !ok {
		return nil
	}
	f.buf[0] = d
	return f.buf[:1]
}

// Simulate retires up to n instructions pulled from next and returns the
// region's timing. next returns false when the stream ends early. It wraps
// SimulateSource with a one-record source: the tests' feed, one instruction
// per Fill, the slowest split a Source may make.
func (s *Sim) Simulate(n uint64, next func() (trace.DynInst, bool)) Result {
	return s.SimulateSource(n, &funcSource{next: next})
}

// streamOf returns a pull function over the given instructions.
func streamOf(insts []trace.DynInst) func() (trace.DynInst, bool) {
	i := 0
	return func() (trace.DynInst, bool) {
		if i >= len(insts) {
			return trace.DynInst{}, false
		}
		d := insts[i]
		i++
		return d, true
	}
}

// linear builds n instructions cycling through a small code footprint (128
// static instructions), as loop-dominated real code does; straight-line
// never-repeating code would make every fetch an instruction-cache cold miss.
func linear(n int, mk func(i int) trace.DynInst) []trace.DynInst {
	const footprint = 128
	out := make([]trace.DynInst, n)
	for i := 0; i < n; i++ {
		d := mk(i)
		d.Seq = uint64(i)
		d.PC = prog.CodeBase + uint64(i%footprint)*isa.InstBytes
		d.NextPC = d.PC + isa.InstBytes
		out[i] = d
	}
	return out
}

func newSim() *Sim {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	p := bpred.NewUnit(bpred.DefaultConfig())
	return New(DefaultConfig(), h, p)
}

// fixedPred always predicts the same direction with no target knowledge.
type fixedPred struct{ taken bool }

func (f fixedPred) Predict(uint64, isa.Class) bpred.Prediction {
	return bpred.Prediction{Taken: f.taken}
}
func (f fixedPred) Update(trace.BranchRecord) {}

func TestIndependentALUThroughput(t *testing.T) {
	// Independent adds: steady-state IPC should approach the issue width.
	insts := linear(20000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: uint8(1 + i%30), Rs1: 0, Rs2: 0}
	})
	r := newSim().Simulate(uint64(len(insts)), streamOf(insts))
	if r.Instructions != uint64(len(insts)) {
		t.Fatalf("retired %d", r.Instructions)
	}
	if ipc := r.IPC(); ipc < 3.2 || ipc > 4.01 {
		t.Fatalf("independent-ALU IPC = %.2f, want ≈4", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	insts := linear(10000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 0}
	})
	r := newSim().Simulate(uint64(len(insts)), streamOf(insts))
	if ipc := r.IPC(); ipc > 1.05 {
		t.Fatalf("dependent-chain IPC = %.2f, want ≤1", ipc)
	}
}

func TestDivChainSlower(t *testing.T) {
	divs := linear(2000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpDiv, Rd: 1, Rs1: 1, Rs2: 2}
	})
	adds := linear(2000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}
	})
	rd := newSim().Simulate(2000, streamOf(divs))
	ra := newSim().Simulate(2000, streamOf(adds))
	if rd.IPC() >= ra.IPC()/4 {
		t.Fatalf("div IPC %.3f not ≪ add IPC %.3f", rd.IPC(), ra.IPC())
	}
}

func TestMispredictionPenalty(t *testing.T) {
	// Never-taken branches: a predictor that predicts not-taken is perfect;
	// one that predicts taken mispredicts every time.
	branches := linear(5000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Taken: false}
	})
	h1 := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	good := New(DefaultConfig(), h1, fixedPred{taken: false}).Simulate(5000, streamOf(branches))
	h2 := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	bad := New(DefaultConfig(), h2, fixedPred{taken: true}).Simulate(5000, streamOf(branches))
	if good.Mispredicts != 0 {
		t.Fatalf("perfect predictor mispredicted %d times", good.Mispredicts)
	}
	if bad.Mispredicts != bad.Branches {
		t.Fatalf("bad predictor mispredicts = %d of %d", bad.Mispredicts, bad.Branches)
	}
	if bad.IPC() >= good.IPC()/2 {
		t.Fatalf("mispredicted IPC %.3f not ≪ predicted IPC %.3f", bad.IPC(), good.IPC())
	}
}

func TestCacheMissesSlowLoads(t *testing.T) {
	hit := linear(5000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpLd, Rd: uint8(1 + i%8), Rs1: 9, EffAddr: 0x10000}
	})
	miss := linear(5000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpLd, Rd: uint8(1 + i%8), Rs1: 9,
			EffAddr: 0x10000 + uint64(i)*4096}
	})
	rh := newSim().Simulate(5000, streamOf(hit))
	rm := newSim().Simulate(5000, streamOf(miss))
	if rm.IPC() >= rh.IPC()/2 {
		t.Fatalf("missing-load IPC %.3f not ≪ hitting-load IPC %.3f", rm.IPC(), rh.IPC())
	}
}

func TestBackToBackBranchesNoDeadlock(t *testing.T) {
	// More unresolved branches than checkpoints must stall, not deadlock.
	insts := linear(1000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpBne, Rs1: 1, Rs2: 1, Taken: false}
	})
	r := newSim().Simulate(1000, streamOf(insts))
	if r.Instructions != 1000 {
		t.Fatalf("retired %d, want 1000", r.Instructions)
	}
}

func TestShortStreamDrains(t *testing.T) {
	insts := linear(10, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: 1}
	})
	r := newSim().Simulate(1000, streamOf(insts))
	if r.Instructions != 10 {
		t.Fatalf("retired %d, want 10", r.Instructions)
	}
	if r.Cycles == 0 {
		t.Fatal("cycles must be positive")
	}
}

func TestZeroInstructionRegion(t *testing.T) {
	r := newSim().Simulate(0, streamOf(nil))
	if r.Instructions != 0 || r.IPC() != 0 {
		t.Fatalf("empty region result = %+v", r)
	}
}

func TestDeterminism(t *testing.T) {
	mkStream := func() []trace.DynInst {
		return linear(20000, func(i int) trace.DynInst {
			switch i % 7 {
			case 0:
				return trace.DynInst{Op: isa.OpLd, Rd: uint8(1 + i%20), Rs1: 3,
					EffAddr: uint64(0x10000 + (i*64)%32768)}
			case 3:
				return trace.DynInst{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Taken: i%3 == 0}
			case 5:
				return trace.DynInst{Op: isa.OpMul, Rd: uint8(1 + i%20), Rs1: 4, Rs2: 5}
			default:
				return trace.DynInst{Op: isa.OpAdd, Rd: uint8(1 + i%20), Rs1: 6, Rs2: 7}
			}
		})
	}
	// Taken branches need consistent NextPC targets for the stream contract.
	fix := func(s []trace.DynInst) []trace.DynInst {
		for i := range s {
			if s[i].Op == isa.OpBeq && s[i].Taken {
				s[i].NextPC = s[i].PC + 64
			}
		}
		return s
	}
	r1 := newSim().Simulate(20000, streamOf(fix(mkStream())))
	r2 := newSim().Simulate(20000, streamOf(fix(mkStream())))
	if r1 != r2 {
		t.Fatalf("nondeterministic results: %+v vs %+v", r1, r2)
	}
}

func TestSimReusableAcrossRegions(t *testing.T) {
	s := newSim()
	insts := linear(1000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: 1}
	})
	r1 := s.Simulate(1000, streamOf(insts))
	r2 := s.Simulate(1000, streamOf(insts))
	if r1.Instructions != r2.Instructions {
		t.Fatal("second region lost instructions")
	}
	// Second region should be at least as fast (caches warm).
	if r2.Cycles > r1.Cycles {
		t.Fatalf("warm region slower: %d > %d", r2.Cycles, r1.Cycles)
	}
}

func TestWarmedPredictorImprovesIPC(t *testing.T) {
	// The end-to-end premise of warm-up: training the real predictor before
	// a region improves its timed IPC on branchy code.
	mkBranches := func() []trace.DynInst {
		// A loop-like pattern: branch at one PC, taken 9 of 10 times.
		out := make([]trace.DynInst, 10000)
		pc := prog.CodeBase
		for i := range out {
			taken := i%10 != 9
			out[i] = trace.DynInst{
				Seq: uint64(i), PC: pc, Op: isa.OpBne, Rs1: 1, Rs2: 2,
				Taken: taken, NextPC: pc + isa.InstBytes,
			}
			if taken {
				out[i].NextPC = pc - 128
			}
		}
		return out
	}
	cold := New(DefaultConfig(), mem.NewHierarchy(mem.DefaultHierarchyConfig()),
		bpred.NewUnit(bpred.DefaultConfig()))
	rCold := cold.Simulate(10000, streamOf(mkBranches()))

	warmUnit := bpred.NewUnit(bpred.DefaultConfig())
	for _, d := range mkBranches() {
		warmUnit.Update(trace.BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: isa.ClassBranch})
	}
	warm := New(DefaultConfig(), mem.NewHierarchy(mem.DefaultHierarchyConfig()), warmUnit)
	rWarm := warm.Simulate(10000, streamOf(mkBranches()))

	if rWarm.Mispredicts >= rCold.Mispredicts {
		t.Fatalf("warmed mispredicts %d not < cold %d", rWarm.Mispredicts, rCold.Mispredicts)
	}
	if rWarm.IPC() <= rCold.IPC() {
		t.Fatalf("warmed IPC %.3f not > cold %.3f", rWarm.IPC(), rCold.IPC())
	}
}

func TestLatencyTable(t *testing.T) {
	if Latency(isa.ClassIntDiv) <= Latency(isa.ClassIntMul) {
		t.Error("div must be slower than mul")
	}
	if Latency(isa.ClassIntMul) <= Latency(isa.ClassIntALU) {
		t.Error("mul must be slower than add")
	}
	if Latency(isa.ClassFPDiv) <= Latency(isa.ClassFPALU) {
		t.Error("fdiv must be slower than fadd")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.FetchWidth != 8 || c.DispatchWidth != 8 {
		t.Error("front end must be 8-wide")
	}
	if c.IssueWidth != 4 || c.RetireWidth != 4 {
		t.Error("issue/retire must be 4-wide")
	}
	if c.NumFUs != 8 || c.ROBSize != 64 || c.IQSize != 32 || c.LSQSize != 64 {
		t.Error("window sizes wrong")
	}
	if c.BranchPenalty != 5 || c.MaxBranches != 8 {
		t.Error("branch parameters wrong")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A store followed by a dependent-address load: the load must forward
	// rather than access the cache.
	insts := []trace.DynInst{
		{Seq: 0, Op: isa.OpSt, Rs1: 1, Rs2: 2, EffAddr: 0x9000},
		{Seq: 1, Op: isa.OpLd, Rd: 3, Rs1: 1, EffAddr: 0x9000},
	}
	for i := range insts {
		insts[i].PC = prog.CodeBase + uint64(i)*isa.InstBytes
		insts[i].NextPC = insts[i].PC + isa.InstBytes
	}
	s := newSim()
	r := s.Simulate(2, streamOf(insts))
	if r.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", r.Forwards)
	}
	// The forwarded load must not have touched the D-cache.
	if s.hier.L1D.Probe(0x9000) {
		t.Fatal("forwarded load should not install a cache line")
	}
}

func TestForwardingOnlySameWord(t *testing.T) {
	insts := []trace.DynInst{
		{Seq: 0, Op: isa.OpSt, Rs1: 1, Rs2: 2, EffAddr: 0x9000},
		{Seq: 1, Op: isa.OpLd, Rd: 3, Rs1: 1, EffAddr: 0x9008}, // next word
	}
	for i := range insts {
		insts[i].PC = prog.CodeBase + uint64(i)*isa.InstBytes
		insts[i].NextPC = insts[i].PC + isa.InstBytes
	}
	r := newSim().Simulate(2, streamOf(insts))
	if r.Forwards != 0 {
		t.Fatalf("forwards = %d, want 0", r.Forwards)
	}
}

// TestForwardingAblationKnob holds the load/store queue's forwarding on a
// long run: of 2,000 store/load pairs to the same word, the model forwards,
// so fewer loads reach the D-cache than there are loads.
func TestForwardingAblationKnob(t *testing.T) {
	const pairs = 2000
	insts := make([]trace.DynInst, 0, 2*pairs)
	pc := prog.CodeBase
	for i := 0; i < pairs; i++ {
		st := trace.DynInst{Seq: uint64(2 * i), PC: pc, Op: isa.OpSt, Rs1: 1, Rs2: 2,
			EffAddr: 0x9000 + uint64(i%512)*8}
		st.NextPC = pc + isa.InstBytes
		pc = st.NextPC
		ld := trace.DynInst{Seq: uint64(2*i + 1), PC: pc, Op: isa.OpLd, Rd: 3, Rs1: 1,
			EffAddr: st.EffAddr}
		ld.NextPC = pc + isa.InstBytes
		pc = ld.NextPC
		// Loop the PCs through a small footprint for I-cache sanity.
		if (i+1)%64 == 0 {
			pc = prog.CodeBase
		}
		insts = append(insts, st, ld)
	}
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	r := New(DefaultConfig(), h, bpred.NewUnit(bpred.DefaultConfig())).Simulate(2*pairs, streamOf(insts))
	if r.Forwards == 0 {
		t.Fatal("no load forwarded")
	}
	// Every store writes through the L1D; a forwarded load does not touch it.
	if got, want := h.L1D.Stats().Accesses, uint64(2*pairs)-r.Forwards; got != want {
		t.Fatalf("L1D accesses = %d, want %d stores + %d unforwarded loads", got, pairs, pairs-int(r.Forwards))
	}
}

func TestDisambiguationBlocksBehindUnknownStore(t *testing.T) {
	// A store whose address depends on a slow divide, then a load: the load
	// must not complete before the store's address resolves.
	insts := []trace.DynInst{
		{Seq: 0, Op: isa.OpDiv, Rd: 1, Rs1: 2, Rs2: 3},
		{Seq: 1, Op: isa.OpSt, Rs1: 1, Rs2: 4, EffAddr: 0x9000}, // addr dep on div
		{Seq: 2, Op: isa.OpLd, Rd: 5, Rs1: 6, EffAddr: 0x9000},
	}
	for i := range insts {
		insts[i].PC = prog.CodeBase + uint64(i)*isa.InstBytes
		insts[i].NextPC = insts[i].PC + isa.InstBytes
	}
	r := newSim().Simulate(3, streamOf(insts))
	// With blocking, total cycles must cover the divide latency before the
	// load can even issue.
	if r.Cycles < Latency(isa.ClassIntDiv) {
		t.Fatalf("cycles = %d, want ≥ divide latency", r.Cycles)
	}
	if r.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1 (same word)", r.Forwards)
	}
}

func TestWindowSizeScalesILP(t *testing.T) {
	// A stream with long-latency loads plus independent ALU work: a larger
	// window should extract more parallelism around the stalls.
	mk := func() []trace.DynInst {
		return linear(20000, func(i int) trace.DynInst {
			if i%16 == 0 {
				return trace.DynInst{Op: isa.OpLd, Rd: uint8(1 + i%8), Rs1: 30,
					EffAddr: 0x100000 + uint64(i)*4096} // always misses
			}
			return trace.DynInst{Op: isa.OpAdd, Rd: uint8(9 + i%16), Rs1: 0, Rs2: 0}
		})
	}
	run := func(rob, iq int) float64 {
		cfg := DefaultConfig()
		cfg.ROBSize = rob
		cfg.IQSize = iq
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		u := bpred.NewUnit(bpred.DefaultConfig())
		return New(cfg, h, u).Simulate(20000, streamOf(mk())).IPC()
	}
	small := run(16, 8)
	base := run(64, 32)
	big := run(256, 128)
	if small >= base {
		t.Fatalf("ROB 16 IPC %.3f not < ROB 64 IPC %.3f", small, base)
	}
	if base > big+1e-9 {
		t.Fatalf("ROB 64 IPC %.3f should not exceed ROB 256 IPC %.3f", base, big)
	}
}

func TestFrontEndDelayAddsLatencyNotThroughput(t *testing.T) {
	// Deepening the front end stretches the pipeline but, without
	// mispredictions, steady-state IPC is unchanged.
	insts := linear(20000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: uint8(1 + i%24), Rs1: 0, Rs2: 0}
	})
	run := func(delay uint64) Result {
		cfg := DefaultConfig()
		cfg.FrontEndDelay = delay
		// The fetch queue holds width x depth in-flight instructions (the
		// pipeline's decode latches); keep it sized to the depth so the
		// comparison isolates latency.
		cfg.FetchQueueSize = cfg.FetchWidth * int(delay+1)
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		u := bpred.NewUnit(bpred.DefaultConfig())
		return New(cfg, h, u).Simulate(20000, streamOf(insts))
	}
	shallow := run(1)
	deep := run(10)
	if deep.Cycles <= shallow.Cycles {
		t.Fatal("deeper front end must add at least the extra fill cycles")
	}
	if diff := deep.Cycles - shallow.Cycles; diff > 100 {
		t.Fatalf("front-end depth changed throughput, not just latency (Δ=%d cycles)", diff)
	}
}

func TestBranchPenaltyScalesMispredictCost(t *testing.T) {
	branches := linear(5000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Taken: false}
	})
	run := func(penalty uint64) uint64 {
		cfg := DefaultConfig()
		cfg.BranchPenalty = penalty
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		return New(cfg, h, fixedPred{taken: true}).Simulate(5000, streamOf(branches)).Cycles
	}
	if run(20) <= run(5) {
		t.Fatal("a larger misprediction penalty must cost cycles")
	}
}

// TestConfigValidate holds every width and size to [1, maxSize]: at 0 the
// model cannot move, above maxSize a ring position overflows a wake link.
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), oddConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v refused: %v", cfg, err)
		}
	}
	cfg := DefaultConfig()
	for i, p := range []*int{&cfg.FetchWidth, &cfg.DispatchWidth, &cfg.IssueWidth, &cfg.RetireWidth,
		&cfg.NumFUs, &cfg.ROBSize, &cfg.IQSize, &cfg.LSQSize, &cfg.MaxBranches, &cfg.FetchQueueSize} {
		old := *p
		for _, v := range []int{0, -1, maxSize + 1} {
			if *p = v; cfg.Validate() == nil {
				t.Errorf("field %d = %d accepted", i, v)
			}
		}
		if *p = maxSize; cfg.Validate() != nil {
			t.Errorf("field %d = maxSize refused", i)
		}
		*p = old
	}
	// The largest ring's last position, as a wake node, stays below noLink.
	if last := 2*maxSize - 1; last<<1|1 >= int(noLink) {
		t.Errorf("ring position %d overflows the wake links", last)
	}
}

// losingSource feeds insts in batches of four and, at the first Fill that
// finds an entry waiting in the issue queue, loses a wake: it counts one more
// producer against that entry, as a dropped wake-list node would, so the
// entry can never issue.
type losingSource struct {
	sim   *Sim
	insts []trace.DynInst
	lost  bool
}

func (l *losingSource) Fill(max uint64) []trace.DynInst {
	if s := l.sim; !l.lost && len(s.iq) > 0 {
		s.rob[s.iq[0]].pending++
		s.iqAt[0] = never
		l.lost = true
	}
	k := min(4, max, uint64(len(l.insts)))
	out := l.insts[:k]
	l.insts = l.insts[k:]
	return out
}

// TestLostWakeEndsWithErrNoProgress: a machine that can never move again ends
// its region with ErrNoProgress within a second instead of spinning, and the
// next region on the same Sim starts clean.
func TestLostWakeEndsWithErrNoProgress(t *testing.T) {
	insts := linear(5000, func(i int) trace.DynInst {
		return trace.DynInst{Op: isa.OpAdd, Rd: uint8(1 + i%30), Rs1: uint8(1 + (i+29)%30)}
	})
	s := newSim()
	done := make(chan Result, 1)
	go func() { done <- s.SimulateSource(uint64(len(insts)), &losingSource{sim: s, insts: insts}) }()
	var r Result
	select {
	case r = <-done:
	case <-time.After(time.Second):
		t.Fatal("a machine with a lost wake still runs after 1 s")
	}
	if err := s.Err(); !errors.Is(err, ErrNoProgress) || r.Instructions >= uint64(len(insts)) {
		t.Fatalf("lost wake: err %v after %d of %d instructions", err, r.Instructions, len(insts))
	}
	if r := s.Simulate(uint64(len(insts)), streamOf(insts)); s.Err() != nil || r.Instructions != uint64(len(insts)) {
		t.Fatalf("region after the wedge: %d instructions, err %v", r.Instructions, s.Err())
	}
}
