package funcsim

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

const (
	fuzzMaxInsts = 256  // static instructions decoded from one input
	fuzzMaxSteps = 4096 // dynamic instructions executed: inputs may loop forever
)

// fuzzProgram decodes bytes into a bounded program, four bytes per
// instruction: opcode selector, rd, rs1 and one argument byte that serves as
// rs2, immediate or target. Every opcode is reachable, and one selector past
// the last is an undefined opcode. Direct branch, jump and call targets are
// clamped to instructions of the program. Indirect ones are not: r1 starts at
// the data segment, whose word i holds — by the top bits of instruction i's rd
// byte — the PC of an instruction, a misaligned PC, or the argument byte
// shifted to somewhere below, inside or past the code, so a load followed by
// jr/ret either lands on an instruction or escapes. A halt follows the
// decoded instructions.
func fuzzProgram(data []byte) *prog.Program {
	n := len(data) / 4
	if n > fuzzMaxInsts {
		n = fuzzMaxInsts
	}
	label := func(i int) string { return fmt.Sprintf("L%d", i) }
	b := prog.NewBuilder("fuzz")
	b.Li(1, int64(prog.DataBase))
	for i := 0; i < n; i++ {
		sel, rdByte, rs1Byte, arg := data[4*i], data[4*i+1], data[4*i+2], data[4*i+3]
		op := isa.Op(int(sel) % (isa.NumOps + 1))
		rd, rs1, rs2 := rdByte%isa.NumRegs, rs1Byte%isa.NumRegs, arg%isa.NumRegs
		target := int(arg) % (n + 1) // n is the trailing halt
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

// outcome is everything a functional run leaves behind.
type outcome struct {
	Recs   []trace.DynInst
	Regs   [isa.NumRegs]uint64
	Seq    uint64
	PC     uint64
	Halted bool
	Pages  map[uint64][pageWords]uint64 // every page written, by key
	Err    string
}

func outcomeOf(s *Sim, recs []trace.DynInst, err error) outcome {
	o := outcome{Recs: recs, Regs: s.regs, Seq: s.seq, PC: s.pc, Halted: s.halted,
		Pages: make(map[uint64][pageWords]uint64, len(s.mem.pages))}
	for key, p := range s.mem.pages {
		o.Pages[key] = p.words
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// stepOutcome is the oracle: Step, one instruction at a time, until halt,
// fault or fuzzMaxSteps.
func stepOutcome(p *prog.Program) outcome {
	s := New(p)
	var recs []trace.DynInst
	for len(recs) < fuzzMaxSteps && !s.Halted() {
		d, err := s.Step()
		if err != nil {
			return outcomeOf(s, recs, err)
		}
		recs = append(recs, d)
	}
	return outcomeOf(s, recs, nil)
}

// batchOutcome runs the same instructions through RunBatch with a buffer of
// the given size, clipped on the last call so exactly fuzzMaxSteps execute.
func batchOutcome(p *prog.Program, size int) outcome {
	s := New(p)
	buf := make([]trace.DynInst, size)
	var recs []trace.DynInst
	for len(recs) < fuzzMaxSteps {
		b := buf
		if rem := fuzzMaxSteps - len(recs); rem < len(b) {
			b = b[:rem]
		}
		n, err := s.RunBatch(b)
		recs = append(recs, b[:n]...)
		if err != nil {
			return outcomeOf(s, recs, err)
		}
		if n < len(b) {
			break // halted
		}
	}
	return outcomeOf(s, recs, nil)
}

// addSeeds adds the inputs both fuzz targets start from besides their
// testdata corpus: every opcode once, and the empty program.
func addSeeds(f *testing.F) {
	allOps := make([]byte, 0, 4*(isa.NumOps+1))
	for op := 0; op <= isa.NumOps; op++ {
		allOps = append(allOps, byte(op), byte(2+op), byte(1+op/2), byte(3*op))
	}
	f.Add(allOps)
	f.Add([]byte{})
}

// FuzzRunBatchMatchesStep is ROADMAP's "one slow oracle, fuzzed": on any
// program the decoder can produce — looping, halting early, running off the
// code through an indirect jump, hitting an undefined opcode — the batched
// interpreter must leave exactly what Step leaves: every record, the
// registers, Seq, PC, Halted, the pages and the error text.
func FuzzRunBatchMatchesStep(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		want := stepOutcome(p)
		for _, size := range []int{1, 7, 1024} {
			got := batchOutcome(p, size)
			if reflect.DeepEqual(got, want) {
				continue
			}
			for i := 0; i < len(got.Recs) && i < len(want.Recs); i++ {
				if got.Recs[i] != want.Recs[i] {
					t.Fatalf("size %d: record %d differs:\nbatch: %+v\nstep:  %+v", size, i, got.Recs[i], want.Recs[i])
				}
			}
			t.Fatalf("size %d: batch and step diverge: %d/%d records, %d/%d pages (equal: %v), regs equal: %v\n"+
				"batch: seq %d pc %#x halted %v err %q\nstep:  seq %d pc %#x halted %v err %q",
				size, len(got.Recs), len(want.Recs), len(got.Pages), len(want.Pages),
				reflect.DeepEqual(got.Pages, want.Pages), got.Regs == want.Regs,
				got.Seq, got.PC, got.Halted, got.Err, want.Seq, want.PC, want.Halted, want.Err)
		}
	})
}

// skipOutcome runs the same instructions through Skip in calls of at most
// chunk, clipped so exactly fuzzMaxSteps execute, and checks that the counts
// Skip reports add up to Seq. It records nothing, so its outcome has no
// records; after a halt it calls Skip once more, which must do nothing.
func skipOutcome(t *testing.T, p *prog.Program, chunk uint64) outcome {
	s := New(p)
	var ran uint64
	for ran < fuzzMaxSteps {
		want := min(chunk, fuzzMaxSteps-ran)
		k, err := s.Skip(want)
		ran += k
		if ran != s.Seq() {
			t.Fatalf("chunk %d: Skip reported %d instructions in all, Seq is %d", chunk, ran, s.Seq())
		}
		if err != nil {
			return outcomeOf(s, nil, err)
		}
		if k < want {
			if !s.Halted() {
				t.Fatalf("chunk %d: Skip ran %d of %d without halting or failing", chunk, k, want)
			}
			if k, err := s.Skip(chunk); k != 0 || err != nil {
				t.Fatalf("chunk %d: Skip after the halt ran %d, %v", chunk, k, err)
			}
			break
		}
	}
	return outcomeOf(s, nil, nil)
}

// FuzzSkipMatchesStep holds the record-free kernel to the same oracle as
// FuzzRunBatchMatchesStep: Skip(n), in calls of 1, 7 and 1024, must leave
// exactly what n Steps leave — the registers, Seq, PC, Halted, the pages
// and the error text of an escaped PC or an undefined opcode.
func FuzzSkipMatchesStep(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		want := stepOutcome(p)
		want.Recs = nil
		for _, chunk := range []uint64{1, 7, 1024} {
			got := skipOutcome(t, p, chunk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk %d: skip and step diverge: %d/%d pages (equal: %v), regs equal: %v\n"+
					"skip: seq %d pc %#x halted %v err %q\nstep: seq %d pc %#x halted %v err %q",
					chunk, len(got.Pages), len(want.Pages), reflect.DeepEqual(got.Pages, want.Pages), got.Regs == want.Regs,
					got.Seq, got.PC, got.Halted, got.Err, want.Seq, want.PC, want.Halted, want.Err)
			}
		}
	})
}

// windowOutcome runs the same instructions through SkipWindow with w's flags,
// in calls of sizes drawn from next, into stretches of room for at most
// memCap memory and brCap branch records, each handed off (its records
// moved out) once the kernel finds it full — the run-ahead feed's hand-off.
// It returns the outcome, every record in order and the final fetch-line
// state.
func windowOutcome(t *testing.T, p *prog.Program, w trace.Window, memCap, brCap int, next func() uint64) (outcome, trace.SkipLog, trace.Window) {
	s := New(p)
	var log trace.SkipLog
	w.Mem, w.Branches = make([]trace.MemRecord, 0, memCap), make([]trace.BranchRecord, 0, brCap)
	handOff := func() {
		log.Mem, log.Branches = append(log.Mem, w.Mem...), append(log.Branches, w.Branches...)
		w.Reset()
	}
	var ran uint64
	var err error
	for ran < fuzzMaxSteps && !s.Halted() && err == nil {
		var k uint64
		k, err = s.SkipWindow(min(next(), fuzzMaxSteps-ran), &w)
		ran += k
		if ran != s.Seq() || ran != w.Seen {
			t.Fatalf("SkipWindow reported %d instructions in all, Seq is %d, Seen %d", ran, s.Seq(), w.Seen)
		}
		if w.Full() {
			handOff()
		}
	}
	handOff()
	return outcomeOf(s, nil, err), log, w
}

// FuzzSkipWindowMatchesStep holds the window kernel to Step and to
// trace.Window.Append, the logging it replaces: on any program, for every
// Cache/BPred combination, in calls of one instruction and of random sizes and
// into random small stretches, SkipWindow must leave exactly what Step leaves
// — registers, Seq, PC, Halted, pages, error text — and log exactly what
// Append logs of Step's records, fetch-line state included.
func FuzzSkipWindowMatchesStep(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		want := stepOutcome(p)
		recs := want.Recs
		want.Recs = nil
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		for _, flags := range [][2]bool{{true, true}, {true, false}, {false, true}} {
			ref := trace.Window{Cache: flags[0], BPred: flags[1], LineMask: ^uint64(63)}
			ref.Append(recs)
			for _, random := range []bool{false, true} {
				next := func() uint64 { return 1 }
				if random {
					next = func() uint64 { return uint64(1 + rng.Intn(1100)) }
				}
				w := trace.Window{Cache: flags[0], BPred: flags[1], LineMask: ^uint64(63)}
				got, log, end := windowOutcome(t, p, w, 2+rng.Intn(64), 1+rng.Intn(32), next)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cache %v bpred %v random %v: window and step diverge: regs equal: %v\n"+
						"window: seq %d pc %#x halted %v err %q\nstep:   seq %d pc %#x halted %v err %q",
						flags[0], flags[1], random, got.Regs == want.Regs,
						got.Seq, got.PC, got.Halted, got.Err, want.Seq, want.PC, want.Halted, want.Err)
				}
				if !slices.Equal(log.Mem, ref.Mem) || !slices.Equal(log.Branches, ref.Branches) {
					t.Fatalf("cache %v bpred %v random %v: the window kernel logged %d memory and %d branch records, Append %d and %d",
						flags[0], flags[1], random, len(log.Mem), len(log.Branches), len(ref.Mem), len(ref.Branches))
				}
				if end.HaveLine != ref.HaveLine || end.HaveLine && end.Line != ref.Line {
					t.Fatalf("cache %v bpred %v random %v: fetch line %#x (%v), Append's %#x (%v)",
						flags[0], flags[1], random, end.Line, end.HaveLine, ref.Line, ref.HaveLine)
				}
			}
		}
	})
}
