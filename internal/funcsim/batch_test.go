package funcsim

import (
	"math"
	"reflect"
	"testing"

	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// allOpcodeProgram builds a finite program exercising every opcode family —
// arithmetic, shifts, floating point, loads/stores, taken and not-taken
// branches, calls, returns, indirect jumps — ending in a halt. The loop gives
// it enough dynamic length to span several batches.
func allOpcodeProgram() *prog.Program {
	b := prog.NewBuilder("allops")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 200) // loop counter
	b.Li(3, 3)
	b.Label("loop")
	b.Op3(isa.OpAdd, 4, 2, 3)
	b.Op3(isa.OpSub, 5, 4, 3)
	b.Op3(isa.OpMul, 6, 4, 5)
	b.Op3(isa.OpDiv, 7, 6, 3)
	b.Op3(isa.OpRem, 8, 6, 3)
	b.Op3(isa.OpAnd, 9, 4, 5)
	b.Op3(isa.OpOr, 10, 4, 5)
	b.Op3(isa.OpXor, 11, 4, 5)
	b.Op3(isa.OpShl, 12, 2, 3)
	b.Op3(isa.OpShr, 13, 12, 3)
	b.Op3(isa.OpSlt, 14, 5, 4)
	b.Andi(15, 6, 0xFF8)
	b.Shli(16, 2, 3)
	b.Shri(17, 16, 1)
	b.Op3(isa.OpFAdd, 20, 6, 7)
	b.Op3(isa.OpFMul, 21, 20, 6)
	b.Op3(isa.OpFDiv, 22, 21, 20)
	b.Op3(isa.OpAdd, 18, 1, 15)
	b.St(18, 6, 0)
	b.Ld(19, 18, 0)
	b.Call(31, "fn")
	b.Call(30, "fn2")
	b.Andi(23, 2, 1)
	b.Branch(isa.OpBeq, 23, 0, "even") // taken half the time
	b.Addi(24, 24, 1)
	b.Label("even")
	b.Branch(isa.OpBge, 4, 5, "ge") // always taken
	b.Nop()
	b.Label("ge")
	b.Branch(isa.OpBlt, 2, 3, "out") // taken only on the last iteration
	b.Addi(2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "loop")
	b.Label("out")
	b.Jmp("fin")
	b.Nop()
	b.Label("fin")
	b.Halt()
	b.Label("fn")
	b.Addi(25, 25, 1)
	b.Ret(31)
	b.Label("fn2")
	b.Addi(26, 26, 1)
	b.Jr(30)
	return b.MustBuild()
}

// loopProgram never halts: the alloc tests below need an endless stream.
func loopProgram() *prog.Program {
	b := prog.NewBuilder("loop")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 1)
	b.Label("loop")
	b.Op3(isa.OpAdd, 3, 3, 2)
	b.Shli(4, 3, 3)
	b.Andi(4, 4, 0xFF8)
	b.Op3(isa.OpAdd, 5, 1, 4)
	b.St(5, 3, 0)
	b.Ld(6, 5, 0)
	b.Branch(isa.OpBne, 2, 0, "loop")
	return b.MustBuild()
}

// collectScalar executes p to completion through the per-instruction Step
// path, the reference semantics for the batched interpreter.
func collectScalar(t *testing.T, p *prog.Program) ([]trace.DynInst, *Sim) {
	t.Helper()
	s := New(p)
	var recs []trace.DynInst
	for !s.Halted() {
		d, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, d)
	}
	return recs, s
}

// poison overwrites every field of every record with all-ones garbage. It
// walks trace.DynInst by reflection so that a field added later is poisoned
// too, and TestRunBatchMatchesStep fails until RunBatch stores it.
func poison(t *testing.T, buf []trace.DynInst) {
	t.Helper()
	for i := range buf {
		v := reflect.ValueOf(&buf[i]).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				fv.SetUint(math.MaxUint64 >> (64 - fv.Type().Bits()))
			case reflect.Bool:
				fv.SetBool(true)
			default:
				t.Fatalf("trace.DynInst.%s has kind %s: teach poison to fill it", v.Type().Field(f).Name, fv.Kind())
			}
		}
	}
}

// TestRunBatchMatchesStep is the batch/scalar equivalence property: for every
// buffer size, RunBatch must produce the identical record sequence, halt at
// the same point, and leave identical architectural state as Step. RunBatch
// stores each field into the caller's slot without zeroing it first, so the
// second pass hands it buffers full of garbage before every call: a field
// without a store — EffAddr on a non-memory instruction, Taken on a
// non-branch — would keep the garbage and differ from Step's zero.
func TestRunBatchMatchesStep(t *testing.T) {
	p := allOpcodeProgram()
	want, ws := collectScalar(t, p)
	for _, poisoned := range []bool{false, true} {
		for _, size := range []int{1, 2, 3, 7, 64, 1000, 1024, 4096} {
			s := New(p)
			buf := make([]trace.DynInst, size)
			var got []trace.DynInst
			for {
				if poisoned {
					poison(t, buf)
				}
				n, err := s.RunBatch(buf)
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size %d poisoned %v: record %d differs:\nbatch:  %+v\nscalar: %+v", size, poisoned, i, got[i], want[i])
				}
			}
			if !s.Halted() {
				t.Fatalf("size %d: not halted", size)
			}
			if s.PC() != ws.PC() || s.Seq() != ws.Seq() {
				t.Fatalf("size %d: pc/seq = %#x/%d, want %#x/%d", size, s.PC(), s.Seq(), ws.PC(), ws.Seq())
			}
			for r := 0; r < isa.NumRegs; r++ {
				if s.Reg(uint8(r)) != ws.Reg(uint8(r)) {
					t.Fatalf("size %d: r%d = %#x, want %#x", size, r, s.Reg(uint8(r)), ws.Reg(uint8(r)))
				}
			}
		}
	}
}

// TestRunBatchesMatchesRun pins the batched driver against the scalar Run
// loop: same executed counts and same observed record stream.
func TestRunBatchesMatchesRun(t *testing.T) {
	p := allOpcodeProgram()
	for _, n := range []uint64{0, 1, 500, 1 << 20} {
		sa := New(p)
		var want []trace.DynInst
		ranA, errA := sa.Run(n, func(d *trace.DynInst) { want = append(want, *d) })
		if errA != nil {
			t.Fatal(errA)
		}
		sb := New(p)
		buf := make([]trace.DynInst, 64)
		var got []trace.DynInst
		ranB, errB := sb.RunBatches(n, buf, func(ds []trace.DynInst) { got = append(got, ds...) }, nil)
		if errB != nil {
			t.Fatal(errB)
		}
		if ranA != ranB {
			t.Fatalf("n=%d: ran %d batched vs %d scalar", n, ranB, ranA)
		}
		// Run does not deliver the halt record (Step returns ErrHalted for
		// it only after committing), RunBatch delivers it as the last record;
		// both report the same executed count. Compare the common prefix.
		if len(got) < len(want) {
			t.Fatalf("n=%d: %d observed batched vs %d scalar", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: record %d differs", n, i)
			}
		}
	}
}

func TestRunBatchAfterHalt(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Nop()
	b.Halt()
	s := New(b.MustBuild())
	buf := make([]trace.DynInst, 8)
	n, err := s.RunBatch(buf)
	if err != nil || n != 2 {
		t.Fatalf("RunBatch = %d, %v; want 2, nil", n, err)
	}
	if buf[1].Op != isa.OpHalt {
		t.Fatal("halt must be the last delivered record")
	}
	n, err = s.RunBatch(buf)
	if err != nil || n != 0 {
		t.Fatalf("RunBatch after halt = %d, %v; want 0, nil", n, err)
	}
}

func TestRunBatchPCEscape(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(1, 0x10) // bogus target outside the code segment
	b.Jr(1)
	s := New(b.MustBuild())
	buf := make([]trace.DynInst, 8)
	n, err := s.RunBatch(buf)
	if err == nil {
		t.Fatal("expected escape error")
	}
	if n != 2 {
		t.Fatalf("delivered %d records before the fault, want 2", n)
	}
	if s.PC() != 0x10 {
		t.Fatalf("pc = %#x, want the faulting address 0x10", s.PC())
	}
}

// TestRunBatchZeroAllocs pins the batched interpreter as allocation-free in
// steady state (after the working set's pages exist).
func TestRunBatchZeroAllocs(t *testing.T) {
	s := New(loopProgram())
	buf := make([]trace.DynInst, BatchSize)
	if _, err := s.RunBatch(buf); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.RunBatch(buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("RunBatch allocates %.2f per batch; the hot loop must be allocation-free", avg)
	}
}

// TestSkipZeroAllocs pins Skip, which keeps no buffer, once the working
// set's pages exist.
func TestSkipZeroAllocs(t *testing.T) {
	s := New(loopProgram())
	if _, err := s.Skip(BatchSize); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Skip(2 * BatchSize); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Skip allocates %.2f per call in steady state", avg)
	}
}

// TestRunBatchesZeroAllocs pins the batched skip loop with an observer — the
// shape of the sampling controller's cold phase.
func TestRunBatchesZeroAllocs(t *testing.T) {
	s := New(loopProgram())
	buf := make([]trace.DynInst, BatchSize)
	var seen uint64
	observe := func(ds []trace.DynInst) { seen += uint64(len(ds)) }
	if _, err := s.RunBatches(4*BatchSize, buf, observe, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.RunBatches(2*BatchSize, buf, observe, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("RunBatches allocates %.2f per call in steady state", avg)
	}
	if seen == 0 {
		t.Fatal("observer never ran")
	}
}
