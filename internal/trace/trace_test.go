package trace

import (
	"testing"

	"rsr/internal/isa"
)

func TestDynInstClassification(t *testing.T) {
	d := DynInst{Op: isa.OpBeq}
	if !d.IsBranch() || d.IsMem() {
		t.Error("beq misclassified")
	}
	d = DynInst{Op: isa.OpLd}
	if d.IsBranch() || !d.IsMem() {
		t.Error("ld misclassified")
	}
	d = DynInst{Op: isa.OpAdd}
	if d.IsBranch() || d.IsMem() {
		t.Error("add misclassified")
	}
}

func TestBranchRecordKinds(t *testing.T) {
	call := BranchRecord{Class: isa.ClassCall}
	ret := BranchRecord{Class: isa.ClassReturn}
	cond := BranchRecord{Class: isa.ClassBranch}
	if !call.IsCall() || call.IsReturn() {
		t.Error("call misclassified")
	}
	if !ret.IsReturn() || ret.IsCall() {
		t.Error("return misclassified")
	}
	if cond.IsCall() || cond.IsReturn() {
		t.Error("conditional misclassified")
	}
}

func TestSkipLogResetRetainsCapacity(t *testing.T) {
	var l SkipLog
	for i := 0; i < 100; i++ {
		l.Mem = append(l.Mem, MemRecord{Addr: uint64(i)})
		l.Branches = append(l.Branches, BranchRecord{PC: uint64(i)})
	}
	if l.Len() != 200 {
		t.Fatalf("len = %d", l.Len())
	}
	memCap, brCap := cap(l.Mem), cap(l.Branches)
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("reset did not empty log")
	}
	if cap(l.Mem) != memCap || cap(l.Branches) != brCap {
		t.Error("reset should retain capacity")
	}
}
