// Package trace defines the dynamic-instruction record produced by the
// functional simulator and the skip-region log records consumed by the warm-up
// methods. These are the only types shared between the functional front end,
// the timing model, and the reconstruction algorithms, so they live in their
// own leaf package.
package trace

import "rsr/internal/isa"

// DynInst is one committed dynamic instruction: the static fields the timing
// model needs for dependence tracking plus the resolved control and memory
// outcomes.
type DynInst struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     uint64 // byte address of the instruction
	NextPC uint64 // byte address of the next committed instruction
	Op     isa.Op
	Rd     uint8
	Rs1    uint8
	Rs2    uint8
	// EffAddr is the byte address touched by loads and stores; zero otherwise.
	EffAddr uint64
	// Taken reports the resolved direction for control transfers
	// (unconditional transfers are always taken).
	Taken bool
}

// IsBranch reports whether the instruction is any control transfer.
func (d *DynInst) IsBranch() bool { return d.Op.IsControl() }

// IsMem reports whether the instruction touches data memory.
func (d *DynInst) IsMem() bool { return d.Op.IsMem() }

// MemRecord is what the skip log keeps of one memory reference during cold
// simulation: the referenced address, an entry-type flag and a reference-type
// flag. §3.1 of the paper also enumerates the current and next PC; no
// reconstruction pass reads them (a fetch record's address is its PC, and
// branch outcomes travel in BranchRecord), so they are not logged. The record
// is 16 bytes and keeps every bit of a 64-bit address.
type MemRecord struct {
	Addr    uint64
	IsInstr bool // instruction fetch (true) vs data access (false)
	IsStore bool // store (true) vs load (false); meaningless for fetches
}

// BranchRecord is the information logged for one control transfer during cold
// simulation (§3.2): PCs, outcome, and enough opcode detail to replay RAS
// pushes/pops and BTB updates.
type BranchRecord struct {
	PC     uint64
	NextPC uint64 // resolved target when taken; fall-through otherwise
	Taken  bool
	Class  isa.Class // ClassBranch, ClassJump, ClassCall, ClassReturn, ClassJumpIndirect
}

// IsCall reports whether the record pushes a return address.
func (r *BranchRecord) IsCall() bool { return r.Class == isa.ClassCall }

// IsReturn reports whether the record pops a return address.
func (r *BranchRecord) IsReturn() bool { return r.Class == isa.ClassReturn }

// SkipLog accumulates the records for the current skip region. Storage is
// retained only for one region: Reset is called when the next cluster begins
// (the paper discards logged data once consumed to bound memory).
type SkipLog struct {
	Mem      []MemRecord
	Branches []BranchRecord
}

// Reset empties the log, retaining capacity for the next skip region.
func (l *SkipLog) Reset() {
	l.Mem = l.Mem[:0]
	l.Branches = l.Branches[:0]
}

// Len reports total records held.
func (l *SkipLog) Len() int { return len(l.Mem) + len(l.Branches) }

// Window is one warm-up window's log as it is written: the records, which of
// them the window keeps, and the state logging carries from one instruction
// to the next. funcsim's window kernel (Sim.SkipWindow) fills it within its
// slices' capacity; Append, its reference, appends.
type Window struct {
	SkipLog
	Cache    bool   // log fetches, one per line crossing, and data references
	BPred    bool   // log control transfers
	LineMask uint64 // instruction-fetch line mask (clears bit 0 at least)
	Line     uint64 // line of the last fetch logged, once HaveLine
	HaveLine bool
	// Seen counts the instructions the window has gone through: the region's,
	// lead included, for a warm-up method's region; a hand-off's own for a
	// stretch of one.
	Seen uint64
}

// Full reports whether w lacks room for one more instruction's records: a
// fetch and a data reference, and a control transfer.
func (w *Window) Full() bool {
	return w.Cache && cap(w.Mem)-len(w.Mem) < 2 || w.BPred && cap(w.Branches) == len(w.Branches)
}

// Append logs the records of the committed instructions ds and counts them
// as seen: the batch logging kernel of warm-up captures and of in-place
// observation, and the reference the window kernel is held to. One sweep over
// the batch with the fetch-line state on locals, records appended straight
// onto the log slices, which a capture has already sized for its region.
func (w *Window) Append(ds []DynInst) {
	mem, branches := w.Mem, w.Branches
	mask, last, have := w.LineMask, w.Line, w.HaveLine
	for i := range ds {
		d := &ds[i]
		class := d.Op.Class()
		if w.Cache {
			if line := d.PC & mask; !have || line != last {
				mem = append(mem, MemRecord{Addr: d.PC, IsInstr: true})
				last, have = line, true
			}
			if class == isa.ClassLoad || class == isa.ClassStore {
				mem = append(mem, MemRecord{Addr: d.EffAddr, IsStore: class == isa.ClassStore})
			}
		}
		if w.BPred && class.IsControl() {
			branches = append(branches, BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: class})
		}
	}
	w.Mem, w.Branches = mem, branches
	w.Line, w.HaveLine = last, have
	w.Seen += uint64(len(ds))
}
