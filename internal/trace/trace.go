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
