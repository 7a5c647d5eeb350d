// Package funcsim implements the architecturally-correct functional simulator
// at the bottom of the stack. It is the analogue of SimpleScalar's functional
// engine in the paper: it retains valid architectural state while the timing
// model is off (cold and warm phases) and produces the committed dynamic
// instruction stream the timing model replays during hot phases.
package funcsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// ErrHalted is returned by Step after the program executes a halt.
var ErrHalted = errors.New("funcsim: program halted")

// Sim executes a Program one instruction at a time.
type Sim struct {
	prog   *prog.Program
	mem    *Memory
	regs   [isa.NumRegs]uint64
	pc     uint64
	seq    uint64
	halted bool
	wbuf   *windowBuf // SkipWindow's, made on its first call
}

// windowChunk bounds what one SkipWindow call runs, so that windowBuf holds
// its records whatever the instruction mix: a fetch and a data reference,
// and a control transfer, each (28 KiB).
const windowChunk = 512

type windowBuf struct {
	mem [2 * windowChunk]trace.MemRecord
	br  [windowChunk]trace.BranchRecord
}

// New returns a simulator positioned at the program entry with the data
// segment installed.
func New(p *prog.Program) *Sim {
	s := &Sim{prog: p, mem: NewMemory(), pc: p.Entry}
	for _, d := range p.Data {
		s.mem.Write(d.Addr, d.Value)
	}
	return s
}

// PC reports the address of the next instruction to execute.
func (s *Sim) PC() uint64 { return s.pc }

// Seq reports how many instructions have committed.
func (s *Sim) Seq() uint64 { return s.seq }

// Halted reports whether the program has executed a halt.
func (s *Sim) Halted() bool { return s.halted }

// Reg returns the architectural value of register r.
func (s *Sim) Reg(r uint8) uint64 { return s.regs[r] }

// SetReg sets register r (writes to the zero register are discarded).
func (s *Sim) SetReg(r uint8, v uint64) {
	if r != isa.ZeroReg {
		s.regs[r] = v
	}
}

// Mem exposes the memory image (used by tests and by workload setup).
func (s *Sim) Mem() *Memory { return s.mem }

// Step executes one instruction and returns its dynamic record.
func (s *Sim) Step() (trace.DynInst, error) {
	if s.halted {
		return trace.DynInst{}, ErrHalted
	}
	idx, ok := s.prog.IndexOf(s.pc)
	if !ok {
		return trace.DynInst{}, fmt.Errorf("funcsim: pc %#x escaped code segment", s.pc)
	}
	in := s.prog.Insts[idx]
	d := trace.DynInst{
		Seq: s.seq, PC: s.pc,
		Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2,
	}
	next := s.pc + isa.InstBytes
	rs1 := s.regs[in.Rs1]
	rs2 := s.regs[in.Rs2]

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		s.SetReg(in.Rd, rs1+rs2)
	case isa.OpSub:
		s.SetReg(in.Rd, rs1-rs2)
	case isa.OpAddi:
		s.SetReg(in.Rd, rs1+uint64(in.Imm))
	case isa.OpLui:
		s.SetReg(in.Rd, uint64(in.Imm))
	case isa.OpAnd:
		s.SetReg(in.Rd, rs1&rs2)
	case isa.OpOr:
		s.SetReg(in.Rd, rs1|rs2)
	case isa.OpXor:
		s.SetReg(in.Rd, rs1^rs2)
	case isa.OpShl:
		s.SetReg(in.Rd, rs1<<(rs2&63))
	case isa.OpShr:
		s.SetReg(in.Rd, rs1>>(rs2&63))
	case isa.OpAndi:
		s.SetReg(in.Rd, rs1&uint64(in.Imm))
	case isa.OpShli:
		s.SetReg(in.Rd, rs1<<(uint64(in.Imm)&63))
	case isa.OpShri:
		s.SetReg(in.Rd, rs1>>(uint64(in.Imm)&63))
	case isa.OpSlt:
		if int64(rs1) < int64(rs2) {
			s.SetReg(in.Rd, 1)
		} else {
			s.SetReg(in.Rd, 0)
		}
	case isa.OpMul:
		s.SetReg(in.Rd, rs1*rs2)
	case isa.OpDiv:
		if rs2 == 0 {
			s.SetReg(in.Rd, 0)
		} else {
			s.SetReg(in.Rd, uint64(int64(rs1)/int64(rs2)))
		}
	case isa.OpRem:
		if rs2 == 0 {
			s.SetReg(in.Rd, 0)
		} else {
			s.SetReg(in.Rd, uint64(int64(rs1)%int64(rs2)))
		}
	case isa.OpFAdd:
		s.SetReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)+math.Float64frombits(rs2)))
	case isa.OpFMul:
		s.SetReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)*math.Float64frombits(rs2)))
	case isa.OpFDiv:
		den := math.Float64frombits(rs2)
		if den == 0 {
			s.SetReg(in.Rd, 0)
		} else {
			s.SetReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)/den))
		}
	case isa.OpLd:
		addr := rs1 + uint64(in.Imm)
		d.EffAddr = addr
		s.SetReg(in.Rd, s.mem.Read(addr))
	case isa.OpSt:
		addr := rs1 + uint64(in.Imm)
		d.EffAddr = addr
		s.mem.Write(addr, rs2)
	case isa.OpBeq:
		if rs1 == rs2 {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBne:
		if rs1 != rs2 {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBlt:
		if int64(rs1) < int64(rs2) {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBge:
		if int64(rs1) >= int64(rs2) {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpJmp:
		next = s.pc + uint64(in.Imm)
		d.Taken = true
	case isa.OpJr:
		next = rs1
		d.Taken = true
	case isa.OpCall:
		s.SetReg(in.Rd, s.pc+isa.InstBytes)
		next = s.pc + uint64(in.Imm)
		d.Taken = true
	case isa.OpRet:
		next = rs1
		d.Taken = true
	case isa.OpHalt:
		s.halted = true
		d.Taken = false
	default:
		return trace.DynInst{}, fmt.Errorf("funcsim: unknown opcode %d at pc %#x", in.Op, s.pc)
	}

	d.NextPC = next
	s.pc = next
	s.seq++
	return d, nil
}

// Run executes up to n instructions, invoking fn for each committed dynamic
// instruction, and reports how many actually executed (fewer only when the
// program halts). The record passed to fn is reused between calls; observers
// that retain it must copy it.
//
// Run is the scalar reference path; the two kernels below, RunBatch (with
// RunBatches over it) and the record-free Skip, execute the identical
// instruction sequence and are what the sampling controller runs on.
func (s *Sim) Run(n uint64, fn func(*trace.DynInst)) (uint64, error) {
	// One reusable record: taking its address inside the loop would make
	// every iteration's record escape to the heap.
	var d trace.DynInst
	var err error
	var i uint64
	for i = 0; i < n; i++ {
		d, err = s.Step()
		if err != nil {
			if errors.Is(err, ErrHalted) {
				return i, nil
			}
			return i, err
		}
		if fn != nil {
			fn(&d)
		}
	}
	return i, nil
}

// BatchSize is the instruction-batch granularity of the sampling controller,
// for RunBatch and for the Skip calls between its cancellation polls: large
// enough to amortize per-batch dispatch, small enough that a batch of records
// stays cache-resident.
const BatchSize = 1024

// RunBatch fills buf with the next committed dynamic instructions and
// reports how many it produced. It returns fewer than len(buf) only when the
// program halts (the halt instruction is the last record delivered; later
// calls return 0) or on an execution fault. It is the specialized hot loop
// behind all batched streaming: program code is indexed directly, the zero
// register is reset with a single store per instruction, and no per-step
// error values are constructed.
func (s *Sim) RunBatch(buf []trace.DynInst) (int, error) {
	if s.halted || len(buf) == 0 {
		return 0, nil
	}
	code := s.prog.Insts
	regs := &s.regs
	m := s.mem
	pc := s.pc
	seq := s.seq
	n := 0
	for n < len(buf) {
		off := pc - prog.CodeBase
		idx := off >> 2 // isa.InstBytes == 4
		if pc < prog.CodeBase || off&3 != 0 || idx >= uint64(len(code)) {
			s.pc, s.seq = pc, seq
			return n, fmt.Errorf("funcsim: pc %#x escaped code segment", pc)
		}
		in := &code[idx]
		// Every field is stored straight into the record's slot: a composite
		// literal here is built on the stack with byte stores and then copied
		// out with 16-byte loads, a failed store-to-load forward per
		// instruction. Nothing zeroes the slot first, so each field of
		// trace.DynInst needs its store (NextPC's is after the switch).
		d := &buf[n]
		d.Seq, d.PC = seq, pc
		d.Op, d.Rd, d.Rs1, d.Rs2 = in.Op, in.Rd, in.Rs1, in.Rs2
		d.EffAddr, d.Taken = 0, false
		next := pc + isa.InstBytes
		rs1 := regs[in.Rs1]
		rs2 := regs[in.Rs2]

		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			regs[in.Rd] = rs1 + rs2
		case isa.OpSub:
			regs[in.Rd] = rs1 - rs2
		case isa.OpAddi:
			regs[in.Rd] = rs1 + uint64(in.Imm)
		case isa.OpLui:
			regs[in.Rd] = uint64(in.Imm)
		case isa.OpAnd:
			regs[in.Rd] = rs1 & rs2
		case isa.OpOr:
			regs[in.Rd] = rs1 | rs2
		case isa.OpXor:
			regs[in.Rd] = rs1 ^ rs2
		case isa.OpShl:
			regs[in.Rd] = rs1 << (rs2 & 63)
		case isa.OpShr:
			regs[in.Rd] = rs1 >> (rs2 & 63)
		case isa.OpAndi:
			regs[in.Rd] = rs1 & uint64(in.Imm)
		case isa.OpShli:
			regs[in.Rd] = rs1 << (uint64(in.Imm) & 63)
		case isa.OpShri:
			regs[in.Rd] = rs1 >> (uint64(in.Imm) & 63)
		case isa.OpSlt:
			if int64(rs1) < int64(rs2) {
				regs[in.Rd] = 1
			} else {
				regs[in.Rd] = 0
			}
		case isa.OpMul:
			regs[in.Rd] = rs1 * rs2
		case isa.OpDiv:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) / int64(rs2))
			}
		case isa.OpRem:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) % int64(rs2))
			}
		case isa.OpFAdd:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) + math.Float64frombits(rs2))
		case isa.OpFMul:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) * math.Float64frombits(rs2))
		case isa.OpFDiv:
			den := math.Float64frombits(rs2)
			if den == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) / den)
			}
		case isa.OpLd:
			addr := rs1 + uint64(in.Imm)
			d.EffAddr = addr
			regs[in.Rd] = m.Read(addr)
		case isa.OpSt:
			addr := rs1 + uint64(in.Imm)
			d.EffAddr = addr
			m.Write(addr, rs2)
		case isa.OpBeq:
			if rs1 == rs2 {
				next = pc + uint64(in.Imm)
				d.Taken = true
			}
		case isa.OpBne:
			if rs1 != rs2 {
				next = pc + uint64(in.Imm)
				d.Taken = true
			}
		case isa.OpBlt:
			if int64(rs1) < int64(rs2) {
				next = pc + uint64(in.Imm)
				d.Taken = true
			}
		case isa.OpBge:
			if int64(rs1) >= int64(rs2) {
				next = pc + uint64(in.Imm)
				d.Taken = true
			}
		case isa.OpJmp:
			next = pc + uint64(in.Imm)
			d.Taken = true
		case isa.OpJr:
			next = rs1
			d.Taken = true
		case isa.OpCall:
			regs[in.Rd] = pc + isa.InstBytes
			next = pc + uint64(in.Imm)
			d.Taken = true
		case isa.OpRet:
			next = rs1
			d.Taken = true
		case isa.OpHalt:
			s.halted = true
		default:
			s.pc, s.seq = pc, seq
			return n, fmt.Errorf("funcsim: unknown opcode %d at pc %#x", in.Op, pc)
		}
		// Writes to the zero register are architecturally discarded; a single
		// unconditional store replaces the per-write branch of SetReg.
		regs[isa.ZeroReg] = 0

		d.NextPC = next
		pc = next
		seq++
		n++
		if s.halted {
			break
		}
	}
	s.pc, s.seq = pc, seq
	return n, nil
}

// RunBatches executes up to n instructions through RunBatch, invoking observe
// (when non-nil) once per filled batch, and reports how many instructions
// actually executed: fewer only when the program halts, or when stop (polled
// after every batch when non-nil) reports true. The batch slice passed to
// observe aliases buf and is only valid until the next batch.
func (s *Sim) RunBatches(n uint64, buf []trace.DynInst, observe func([]trace.DynInst), stop func() bool) (uint64, error) {
	var done uint64
	for done < n {
		b := buf
		if rem := n - done; rem < uint64(len(b)) {
			b = b[:rem]
		}
		k, err := s.RunBatch(b)
		done += uint64(k)
		if err != nil {
			return done, err
		}
		if observe != nil && k > 0 {
			observe(b[:k])
		}
		if k < len(b) || stop != nil && stop() {
			return done, nil // halted or stopped
		}
	}
	return done, nil
}

// Skip executes up to n instructions and produces no records: the cold
// simulation outside every warm-up window. It reports how many executed,
// fewer than n only when the program halts (the halt is counted; later calls
// return 0) or on an execution fault, whose error is Step's. It is RunBatch's
// interpreter with the record stores taken out, Seq added once on the way out
// and Step as its reference (FuzzSkipMatchesStep).
func (s *Sim) Skip(n uint64) (uint64, error) {
	if s.halted {
		return 0, nil
	}
	code := s.prog.Insts
	regs := &s.regs
	m := s.mem
	pc := s.pc
	var i uint64
	for ; i < n; i++ {
		// The offset rotated right by two is the instruction index of an
		// aligned code address; misaligned, its low bits land on top, and
		// below CodeBase it has wrapped, so one unsigned compare rejects all
		// three.
		idx := bits.RotateLeft64(pc-prog.CodeBase, -2)
		if idx >= uint64(len(code)) {
			s.pc, s.seq = pc, s.seq+i
			return i, fmt.Errorf("funcsim: pc %#x escaped code segment", pc)
		}
		in := &code[idx]
		next := pc + isa.InstBytes
		rs1 := regs[in.Rs1]
		rs2 := regs[in.Rs2]

		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			regs[in.Rd] = rs1 + rs2
		case isa.OpSub:
			regs[in.Rd] = rs1 - rs2
		case isa.OpAddi:
			regs[in.Rd] = rs1 + uint64(in.Imm)
		case isa.OpLui:
			regs[in.Rd] = uint64(in.Imm)
		case isa.OpAnd:
			regs[in.Rd] = rs1 & rs2
		case isa.OpOr:
			regs[in.Rd] = rs1 | rs2
		case isa.OpXor:
			regs[in.Rd] = rs1 ^ rs2
		case isa.OpShl:
			regs[in.Rd] = rs1 << (rs2 & 63)
		case isa.OpShr:
			regs[in.Rd] = rs1 >> (rs2 & 63)
		case isa.OpAndi:
			regs[in.Rd] = rs1 & uint64(in.Imm)
		case isa.OpShli:
			regs[in.Rd] = rs1 << (uint64(in.Imm) & 63)
		case isa.OpShri:
			regs[in.Rd] = rs1 >> (uint64(in.Imm) & 63)
		case isa.OpSlt:
			if int64(rs1) < int64(rs2) {
				regs[in.Rd] = 1
			} else {
				regs[in.Rd] = 0
			}
		case isa.OpMul:
			regs[in.Rd] = rs1 * rs2
		case isa.OpDiv:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) / int64(rs2))
			}
		case isa.OpRem:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) % int64(rs2))
			}
		case isa.OpFAdd:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) + math.Float64frombits(rs2))
		case isa.OpFMul:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) * math.Float64frombits(rs2))
		case isa.OpFDiv:
			den := math.Float64frombits(rs2)
			if den == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) / den)
			}
		case isa.OpLd:
			regs[in.Rd] = m.Read(rs1 + uint64(in.Imm))
		case isa.OpSt:
			m.Write(rs1+uint64(in.Imm), rs2)
		case isa.OpBeq:
			if rs1 == rs2 {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBne:
			if rs1 != rs2 {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBlt:
			if int64(rs1) < int64(rs2) {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBge:
			if int64(rs1) >= int64(rs2) {
				next = pc + uint64(in.Imm)
			}
		case isa.OpJmp:
			next = pc + uint64(in.Imm)
		case isa.OpJr, isa.OpRet:
			next = rs1
		case isa.OpCall:
			regs[in.Rd] = pc + isa.InstBytes
			next = pc + uint64(in.Imm)
		case isa.OpHalt:
			s.pc, s.seq, s.halted = next, s.seq+i+1, true
			return i + 1, nil
		default:
			s.pc, s.seq = pc, s.seq+i
			return i, fmt.Errorf("funcsim: unknown opcode %d at pc %#x", in.Op, pc)
		}
		regs[isa.ZeroReg] = 0
		pc = next
	}
	s.pc, s.seq = pc, s.seq+i
	return i, nil
}

// SkipWindow executes up to n instructions like Skip and logs them into w as
// a warm-up window: one memory record per instruction-fetch line crossing and
// per load or store when w.Cache is set, one branch record per control
// transfer when w.BPred is, exactly what w.Append makes of RunBatch's records
// for the same instructions (FuzzSkipWindowMatchesStep).
// It runs at most windowChunk instructions, and at most as many as surely
// fit in the capacity of w's slices — two memory records and a branch each —
// and otherwise stops early only on a halt (counted, its fetch logged) or a
// fault (neither). It adds what it ran to w.Seen. No trace.DynInst is built,
// and nothing is appended: the loop stores both kinds of record by index into
// the simulator's windowBuf, which needs neither w's bounds nor its flags
// kept live (a version storing into w's slices spilled them and read 10–14%
// slower than RunBatch), and the kept kinds are copied into w at the end.
func (s *Sim) SkipWindow(n uint64, w *trace.Window) (uint64, error) {
	if s.halted {
		return 0, nil
	}
	if s.wbuf == nil {
		s.wbuf = new(windowBuf)
	}
	buf := s.wbuf
	n = min(n, windowChunk)
	if w.Cache {
		n = min(n, uint64(cap(w.Mem)-len(w.Mem))/2)
	}
	if w.BPred {
		n = min(n, uint64(cap(w.Branches)-len(w.Branches)))
	}
	var nm, nb int
	code := s.prog.Insts
	regs := &s.regs
	m := s.mem
	pc, mask, last := s.pc, w.LineMask, w.Line
	if !w.HaveLine {
		last = 1 // no masked address: LineMask clears bit 0
	}
	var i uint64
	var err error
loop:
	for ; i < n; i++ {
		idx := bits.RotateLeft64(pc-prog.CodeBase, -2)
		if idx >= uint64(len(code)) {
			err = fmt.Errorf("funcsim: pc %#x escaped code segment", pc)
			break
		}
		in := &code[idx]
		if in.Op >= isa.Op(isa.NumOps) { // checked first, so that its fetch is not logged
			err = fmt.Errorf("funcsim: unknown opcode %d at pc %#x", in.Op, pc)
			break
		}
		if line := pc & mask; line != last {
			r := &buf.mem[nm]
			r.Addr, r.IsInstr, r.IsStore = pc, true, false
			nm++
			last = line
		}
		next := pc + isa.InstBytes
		rs1 := regs[in.Rs1]
		rs2 := regs[in.Rs2]
		class, taken := isa.ClassNop, false

		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			regs[in.Rd] = rs1 + rs2
		case isa.OpSub:
			regs[in.Rd] = rs1 - rs2
		case isa.OpAddi:
			regs[in.Rd] = rs1 + uint64(in.Imm)
		case isa.OpLui:
			regs[in.Rd] = uint64(in.Imm)
		case isa.OpAnd:
			regs[in.Rd] = rs1 & rs2
		case isa.OpOr:
			regs[in.Rd] = rs1 | rs2
		case isa.OpXor:
			regs[in.Rd] = rs1 ^ rs2
		case isa.OpShl:
			regs[in.Rd] = rs1 << (rs2 & 63)
		case isa.OpShr:
			regs[in.Rd] = rs1 >> (rs2 & 63)
		case isa.OpAndi:
			regs[in.Rd] = rs1 & uint64(in.Imm)
		case isa.OpShli:
			regs[in.Rd] = rs1 << (uint64(in.Imm) & 63)
		case isa.OpShri:
			regs[in.Rd] = rs1 >> (uint64(in.Imm) & 63)
		case isa.OpSlt:
			if int64(rs1) < int64(rs2) {
				regs[in.Rd] = 1
			} else {
				regs[in.Rd] = 0
			}
		case isa.OpMul:
			regs[in.Rd] = rs1 * rs2
		case isa.OpDiv:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) / int64(rs2))
			}
		case isa.OpRem:
			if rs2 == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = uint64(int64(rs1) % int64(rs2))
			}
		case isa.OpFAdd:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) + math.Float64frombits(rs2))
		case isa.OpFMul:
			regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) * math.Float64frombits(rs2))
		case isa.OpFDiv:
			den := math.Float64frombits(rs2)
			if den == 0 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = math.Float64bits(math.Float64frombits(rs1) / den)
			}
		case isa.OpLd:
			addr := rs1 + uint64(in.Imm)
			r := &buf.mem[nm]
			r.Addr, r.IsInstr, r.IsStore = addr, false, false
			nm++
			regs[in.Rd] = m.Read(addr)
		case isa.OpSt:
			addr := rs1 + uint64(in.Imm)
			r := &buf.mem[nm]
			r.Addr, r.IsInstr, r.IsStore = addr, false, true
			nm++
			m.Write(addr, rs2)
		case isa.OpBeq:
			class, taken = isa.ClassBranch, rs1 == rs2
		case isa.OpBne:
			class, taken = isa.ClassBranch, rs1 != rs2
		case isa.OpBlt:
			class, taken = isa.ClassBranch, int64(rs1) < int64(rs2)
		case isa.OpBge:
			class, taken = isa.ClassBranch, int64(rs1) >= int64(rs2)
		case isa.OpJmp:
			class, taken = isa.ClassJump, true
		case isa.OpCall:
			regs[in.Rd] = pc + isa.InstBytes
			class, taken = isa.ClassCall, true
		case isa.OpJr:
			class, taken, next = isa.ClassJumpIndirect, true, rs1
		case isa.OpRet:
			class, taken, next = isa.ClassReturn, true, rs1
		case isa.OpHalt:
			s.halted = true
			i++
			pc = next
			break loop
		}
		regs[isa.ZeroReg] = 0
		if class != isa.ClassNop {
			if taken && class <= isa.ClassCall { // a direct transfer: Branch, Jump or Call
				next = pc + uint64(in.Imm)
			}
			b := &buf.br[nb]
			b.PC, b.NextPC, b.Taken, b.Class = pc, next, taken, class
			nb++
		}
		pc = next
	}
	if w.Cache {
		k := len(w.Mem)
		w.Mem = w.Mem[:k+nm]
		copy(w.Mem[k:], buf.mem[:nm])
		w.Line, w.HaveLine = last, last != 1
	}
	if w.BPred {
		k := len(w.Branches)
		w.Branches = w.Branches[:k+nb]
		copy(w.Branches[k:], buf.br[:nb])
	}
	w.Seen += i
	s.pc, s.seq = pc, s.seq+i
	return i, err
}
