package warmup

import (
	"fmt"

	"rsr/internal/isa"
	"rsr/internal/trace"
)

// The per-instruction observers every method had before ObserveSkipBatch
// became the only way in: the reference semantics the batch kernels are
// tested against (TestBatchScalarEquivalence, TestWindowedBatchScalarEquivalence,
// TestMemRecordRoundTrip). They act on the method's own state, one
// instruction at a time, with none of the batch path's hoisting. Both
// directions open their window the same way: once seen exceeds the threshold,
// apply (forward) or log (reverse) — and a reverse scan reads all of the log.

// observeScalar shows m one skipped instruction.
func observeScalar(m Method, d *trace.DynInst) {
	switch m := m.(type) {
	case *forward:
		m.cur.seen++
		if m.cur.seen > m.cur.threshold {
			m.applyScalar(d)
		}
	case *reverse:
		m.cur.seen++
		if m.cur.seen > m.cur.threshold {
			m.logScalar(d)
		}
	default:
		panic(fmt.Sprintf("warmup: no scalar oracle for %T", m))
	}
}

// crossed reports whether pc enters a new cache line.
func (t *lineTracker) crossed(pc uint64) bool {
	line := pc & t.lineMask
	if t.have && line == t.last {
		return false
	}
	t.last, t.have = line, true
	return true
}

// applyScalar functionally warms with one instruction.
func (f *forward) applyScalar(d *trace.DynInst) {
	if f.pool.cache {
		if f.cur.lines.crossed(d.PC) {
			f.h.WarmInst(d.PC)
			f.work.WarmOps++
		}
		if d.IsMem() {
			f.h.WarmData(d.EffAddr, d.Op.Class() == isa.ClassStore)
			f.work.WarmOps++
		}
	}
	if f.pool.bp && d.IsBranch() {
		f.u.Update(branchRecordOf(d))
		f.work.WarmOps++
	}
}

// logScalar logs one instruction's references into the current region.
func (r *reverse) logScalar(d *trace.DynInst) {
	c := r.cur
	if !c.fitted {
		r.pool.fit(c)
	}
	if r.spec.Cache {
		if c.lines.crossed(d.PC) {
			c.log.Mem = append(c.log.Mem, trace.MemRecord{Addr: d.PC, IsInstr: true})
			c.logged++
		}
		if d.IsMem() {
			c.log.Mem = append(c.log.Mem, trace.MemRecord{Addr: d.EffAddr, IsStore: d.Op.Class() == isa.ClassStore})
			c.logged++
		}
	}
	if r.spec.BPred && d.IsBranch() {
		c.log.Branches = append(c.log.Branches, branchRecordOf(d))
		c.logged++
	}
}

// observe1 is a one-record batch, for tests that feed hand-built
// instructions through the production path.
func observe1(m Method, d *trace.DynInst) {
	m.ObserveSkipBatch([]trace.DynInst{*d})
}
