package sampling

import (
	"fmt"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// scalarWarm is a per-instruction reference for every warm-up Spec, written
// against the public surface of mem, bpred, core and trace only: it shares
// no observation code with package warmup, whose methods see instructions
// only in batches. One instruction at a time it applies (None, SMARTS,
// fixed-period) or logs (reverse) exactly what the paper's policies say —
// once seen exceeds the window's threshold, in either direction, and a reverse
// scan reads all of what was logged — and counts the work the way warmup.Work
// defines it.
type scalarWarm struct {
	spec warmup.Spec
	h    *mem.Hierarchy
	u    *bpred.Unit
	rp   *core.ReconPredictor

	lineMask, lastLine uint64
	haveLine           bool
	seen, threshold    uint64

	log       trace.SkipLog
	planner   *core.CachePlanner
	cachePlan core.CacheReconPlan
	predPlan  core.PredReconPlan
	work      warmup.Work
}

func newScalarWarm(spec warmup.Spec, h *mem.Hierarchy, u *bpred.Unit) *scalarWarm {
	w := &scalarWarm{spec: spec, h: h, u: u, lineMask: ^uint64(h.Config().L1I.LineBytes - 1)}
	if spec.Kind == warmup.KindReverse {
		w.planner = core.NewCachePlanner(h.Config())
		if spec.BPred {
			w.rp = core.NewReconPredictor(u)
		}
	}
	return w
}

func (w *scalarWarm) predictor() bpred.Predictor {
	if w.rp != nil {
		return w.rp
	}
	return w.u
}

// predWork is the on-demand scanning the wrapped predictor has done for the
// current region.
func (w *scalarWarm) predWork() (scanned, applied uint64) {
	if w.rp == nil {
		return 0, 0
	}
	st := w.rp.Stats()
	return st.ScannedRecords, st.CountersExact + st.CountersInferred
}

func (w *scalarWarm) totalWork() warmup.Work {
	out := w.work
	scanned, applied := w.predWork()
	out.ReconScanned += scanned
	out.ReconApplied += applied
	return out
}

func (w *scalarWarm) beginSkip(expectedLen uint64) {
	w.haveLine, w.seen, w.threshold = false, 0, 0
	if w.spec.Kind == warmup.KindFixed || w.spec.Kind == warmup.KindReverse {
		w.threshold = expectedLen - expectedLen*uint64(w.spec.Percent)/100
	}
	if w.spec.Kind == warmup.KindReverse {
		scanned, applied := w.predWork()
		w.work.ReconScanned += scanned
		w.work.ReconApplied += applied
		if w.rp != nil {
			w.rp.ReleaseRegion()
		}
		w.log.Reset()
	}
}

func (w *scalarWarm) observe(d *trace.DynInst) {
	w.seen++
	if w.spec.Kind == warmup.KindNone || w.seen <= w.threshold {
		return
	}
	reverse := w.spec.Kind == warmup.KindReverse
	if w.spec.Cache {
		if line := d.PC & w.lineMask; !w.haveLine || line != w.lastLine {
			w.lastLine, w.haveLine = line, true
			if reverse {
				w.log.Mem = append(w.log.Mem, trace.MemRecord{Addr: d.PC, IsInstr: true})
				w.work.LoggedRecords++
			} else {
				w.h.WarmInst(d.PC)
				w.work.WarmOps++
			}
		}
		if d.IsMem() {
			store := d.Op.Class() == isa.ClassStore
			if reverse {
				w.log.Mem = append(w.log.Mem, trace.MemRecord{Addr: d.EffAddr, IsStore: store})
				w.work.LoggedRecords++
			} else {
				w.h.WarmData(d.EffAddr, store)
				w.work.WarmOps++
			}
		}
	}
	if w.spec.BPred && d.IsBranch() {
		r := trace.BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: d.Op.Class()}
		if reverse {
			w.log.Branches = append(w.log.Branches, r)
			w.work.LoggedRecords++
		} else {
			w.u.Update(r)
			w.work.WarmOps++
		}
	}
}

func (w *scalarWarm) endSkip() {
	if w.spec.Kind != warmup.KindReverse {
		return
	}
	if w.spec.Cache {
		core.PlanCacheRecon(w.planner, w.log.Mem, &w.cachePlan)
		st := core.ApplyCacheRecon(w.h, &w.cachePlan)
		w.work.ReconScanned += st.ScannedRefs
		w.work.ReconApplied += st.Applied
	}
	if w.spec.BPred {
		core.PlanPredRecon(core.PredGeomOf(w.u), w.log.Branches, &w.predPlan)
		w.rp.BeginRegionPlan(&w.predPlan)
		w.work.ReconApplied += w.rp.Stats().RASInstalled
	}
}

// runSampledScalar is the pre-batching controller, kept as executable
// reference semantics: per-instruction observation through scalarWarm and a
// per-instruction pull closure into the timing model. The batched RunSampled
// must produce identical results (modulo wall-clock).
func runSampledScalar(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec) (*RunResult, error) {
	regions, err := reg.Regions(total, seed)
	if err != nil {
		return nil, err
	}
	return runRegionsScalar(p, m, regions, spec)
}

// runRegionsScalar is runSampledScalar over any region list.
func runRegionsScalar(p *prog.Program, m MachineConfig, regions []Region, spec warmup.Spec) (*RunResult, error) {
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	warm := newScalarWarm(spec, hier, unit)
	sim := ooo.New(m.CPU, hier, warm.predictor())
	fs := funcsim.New(p)

	res := &RunResult{Method: spec.Label()}
	var pos uint64
	for _, reg := range regions {
		start := reg.Start
		skip := start - pos
		warm.beginSkip(skip)
		ran, err := fs.Run(skip, warm.observe)
		if err != nil {
			return nil, err
		}
		if ran != skip {
			return nil, fmt.Errorf("workload halted after %d skipped instructions", ran)
		}
		warm.endSkip()
		res.FuncInstructions += ran
		pos += ran

		src := &stepSource{fs: fs}
		r := sim.SimulateSource(reg.Size, src)
		if src.err != nil {
			return nil, src.err
		}
		res.FuncInstructions += r.Instructions
		res.HotInstructions += r.Instructions
		res.Clusters = append(res.Clusters, ClusterStat{Start: start, Result: r})
		pos += r.Instructions
	}
	res.Work = warm.totalWork()
	return res, nil
}

// stepSource feeds the timing model one fs.Step per Fill: the scalar
// reference's feed, the slowest split an ooo.Source may make.
type stepSource struct {
	fs  *funcsim.Sim
	buf [1]trace.DynInst
	err error
}

func (s *stepSource) Fill(max uint64) []trace.DynInst {
	if max == 0 || s.err != nil {
		return nil
	}
	s.buf[0], s.err = s.fs.Step()
	if s.err != nil {
		return nil
	}
	return s.buf[:1]
}
