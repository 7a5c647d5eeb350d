package funcsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

func runProgram(t *testing.T, build func(b *prog.Builder)) *Sim {
	t.Helper()
	b := prog.NewBuilder("t")
	build(b)
	s := New(b.MustBuild())
	for !s.Halted() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestArithmetic(t *testing.T) {
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(1, 6)
		b.Li(2, 7)
		b.Op3(isa.OpAdd, 3, 1, 2)  // 13
		b.Op3(isa.OpSub, 4, 1, 2)  // -1
		b.Op3(isa.OpMul, 5, 1, 2)  // 42
		b.Op3(isa.OpDiv, 6, 2, 1)  // 1
		b.Op3(isa.OpRem, 7, 2, 1)  // 1
		b.Op3(isa.OpAnd, 8, 1, 2)  // 6
		b.Op3(isa.OpOr, 9, 1, 2)   // 7
		b.Op3(isa.OpXor, 10, 1, 2) // 1
		b.Op3(isa.OpSlt, 11, 1, 2) // 1
		b.Op3(isa.OpSlt, 12, 2, 1) // 0
		b.Halt()
	})
	want := map[uint8]uint64{3: 13, 4: ^uint64(0), 5: 42, 6: 1, 7: 1, 8: 6, 9: 7, 10: 1, 11: 1, 12: 0}
	for r, v := range want {
		if got := s.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestDivByZero(t *testing.T) {
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(1, 9)
		b.Op3(isa.OpDiv, 2, 1, 0)
		b.Op3(isa.OpRem, 3, 1, 0)
		b.Halt()
	})
	if s.Reg(2) != 0 || s.Reg(3) != 0 {
		t.Error("division by zero should yield 0")
	}
}

func TestShifts(t *testing.T) {
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(1, 1)
		b.Li(2, 10)
		b.Op3(isa.OpShl, 3, 1, 2) // 1024
		b.Li(4, 3)
		b.Op3(isa.OpShr, 5, 3, 4) // 128
		b.Halt()
	})
	if s.Reg(3) != 1024 || s.Reg(5) != 128 {
		t.Errorf("shifts wrong: %d %d", s.Reg(3), s.Reg(5))
	}
}

func TestFloatingPoint(t *testing.T) {
	f := isa.FPBase
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(uint8(f), int64(math.Float64bits(1.5)))
		b.Li(uint8(f+1), int64(math.Float64bits(2.5)))
		b.Op3(isa.OpFAdd, uint8(f+2), uint8(f), uint8(f+1))
		b.Op3(isa.OpFMul, uint8(f+3), uint8(f), uint8(f+1))
		b.Op3(isa.OpFDiv, uint8(f+4), uint8(f+1), uint8(f))
		b.Op3(isa.OpFDiv, uint8(f+5), uint8(f), 0) // /0 -> 0
		b.Halt()
	})
	if got := math.Float64frombits(s.Reg(uint8(f + 2))); got != 4.0 {
		t.Errorf("fadd = %g", got)
	}
	if got := math.Float64frombits(s.Reg(uint8(f + 3))); got != 3.75 {
		t.Errorf("fmul = %g", got)
	}
	if got := math.Float64frombits(s.Reg(uint8(f + 4))); got != 2.5/1.5 {
		t.Errorf("fdiv = %g", got)
	}
	if s.Reg(uint8(f+5)) != 0 {
		t.Error("fdiv by zero should yield 0")
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(0, 99)
		b.Op3(isa.OpAdd, 1, 0, 0)
		b.Halt()
	})
	if s.Reg(0) != 0 || s.Reg(1) != 0 {
		t.Error("r0 must stay zero")
	}
}

func TestLoadStore(t *testing.T) {
	s := runProgram(t, func(b *prog.Builder) {
		b.Li(1, int64(prog.DataBase))
		b.Li(2, 0xabcd)
		b.St(1, 2, 16)
		b.Ld(3, 1, 16)
		b.Ld(4, 1, 24) // untouched -> 0
		b.Halt()
	})
	if s.Reg(3) != 0xabcd {
		t.Errorf("load = %#x", s.Reg(3))
	}
	if s.Reg(4) != 0 {
		t.Error("untouched memory should read zero")
	}
}

func TestDataSegmentInstalled(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Word(prog.DataBase+8, 777)
	b.Li(1, int64(prog.DataBase))
	b.Ld(2, 1, 8)
	b.Halt()
	s := New(b.MustBuild())
	for !s.Halted() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Reg(2) != 777 {
		t.Errorf("data init not visible: %d", s.Reg(2))
	}
}

func TestLoopAndBranchRecords(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(1, 3)
	b.Label("loop")
	b.Addi(1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	s := New(b.MustBuild())
	var recs []trace.DynInst
	for !s.Halted() {
		d, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, d)
	}
	// li, then 3x (addi, bne): bne taken twice, not-taken once, halt.
	if len(recs) != 1+3*2+1 {
		t.Fatalf("executed %d instructions", len(recs))
	}
	takens := 0
	for _, d := range recs {
		if d.Op == isa.OpBne && d.Taken {
			takens++
		}
	}
	if takens != 2 {
		t.Errorf("taken branches = %d, want 2", takens)
	}
	// NextPC chain must be consistent: each record's NextPC equals the PC of
	// the next record.
	for i := 0; i+1 < len(recs); i++ {
		if recs[i].NextPC != recs[i+1].PC {
			t.Fatalf("NextPC chain broken at %d", i)
		}
	}
}

func TestCallReturn(t *testing.T) {
	b := prog.NewBuilder("t")
	link := uint8(31)
	b.Call(link, "fn")
	b.Li(5, 1) // executed after return
	b.Halt()
	b.Label("fn")
	b.Li(4, 9)
	b.Ret(link)
	s := New(b.MustBuild())
	for !s.Halted() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Reg(4) != 9 || s.Reg(5) != 1 {
		t.Errorf("call/return flow wrong: r4=%d r5=%d", s.Reg(4), s.Reg(5))
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Halt()
	s := New(b.MustBuild())
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
}

func TestRunStopsAtHalt(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Nop()
	b.Nop()
	b.Halt()
	s := New(b.MustBuild())
	n, err := s.Run(100, nil)
	if err != nil || n != 3 {
		t.Fatalf("Run = %d, %v", n, err)
	}
}

func TestPCEscape(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(1, 0x10) // bogus target outside code
	b.Jr(1)
	s := New(b.MustBuild())
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err == nil {
		t.Fatal("expected escape error")
	}
}

func TestMemoryPropertyReadAfterWrite(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint64) bool {
		m.Write(addr, v)
		return m.Read(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryAlignmentSharing(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 42)
	for off := uint64(0); off < 8; off++ {
		if m.Read(0x1000+off) != 42 {
			t.Fatalf("offset %d within word should alias", off)
		}
	}
	if m.Read(0x1008) == 42 && m.Read(0x1008) != 0 {
		t.Fatal("next word must be distinct")
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	m.Write(0xFFF8, 1)
	m.Write(0x10000, 2)
	if m.Read(0xFFF8) != 1 || m.Read(0x10000) != 2 {
		t.Fatal("cross-page values corrupted")
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Sim {
		b := prog.NewBuilder("t")
		b.Li(1, 1000)
		b.Li(2, int64(prog.DataBase))
		b.Label("loop")
		b.Op3(isa.OpAdd, 3, 3, 1)
		b.St(2, 3, 0)
		b.Ld(4, 2, 0)
		b.Addi(1, 1, -1)
		b.Branch(isa.OpBne, 1, 0, "loop")
		b.Halt()
		return New(b.MustBuild())
	}
	a, bsim := build(), build()
	for !a.Halted() {
		da, err1 := a.Step()
		db, err2 := bsim.Step()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if da != db {
			t.Fatalf("divergence at seq %d: %+v vs %+v", da.Seq, da, db)
		}
	}
}

// storeLoopProgram stores an incrementing counter to successive words of the
// data segment, forever.
func storeLoopProgram() *prog.Program {
	b := prog.NewBuilder("d")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 0)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.St(1, 2, 0)
	b.Addi(1, 1, 8)
	b.Jmp("loop")
	b.Halt()
	return b.MustBuild()
}

func TestAccessors(t *testing.T) {
	s := New(storeLoopProgram())
	if s.PC() != prog.CodeBase || s.Seq() != 0 {
		t.Fatal("initial accessors wrong")
	}
	if s.Mem() == nil {
		t.Fatal("Mem accessor nil")
	}
	d, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != isa.OpLui || s.Seq() != 1 {
		t.Fatal("step accounting wrong")
	}
}

func TestSkipDiscardsRecords(t *testing.T) {
	s := New(storeLoopProgram())
	n, err := s.Skip(123)
	if err != nil || n != 123 {
		t.Fatalf("skip = %d, %v", n, err)
	}
	if s.Seq() != 123 {
		t.Fatal("seq not advanced")
	}
}
