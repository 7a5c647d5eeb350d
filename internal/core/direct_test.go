package core

import (
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// The direct reverse passes: §3.1 and §3.2 as the paper states them, scanning
// the raw log against the live structures. Production code plans a region
// from its log alone and applies the plan; these are the reference the plan
// path is compared against (TestPlanCacheReconMatchesDirect,
// TestBeginRegionPlanMatchesDirect).

// newest returns the newest percent of a log: the window a warm-up method
// would have cut at log time, for tests that start from a whole region.
func newest[T any](log []T, percent int) []T {
	return log[len(log)-len(log)*percent/100:]
}

// reconstructCachesDirect offers the logged references, newest to oldest, to
// the L1 of their stream and to the L2.
func reconstructCachesDirect(h *mem.Hierarchy, log []trace.MemRecord) CacheReconStats {
	h.L1I.BeginReconstruction()
	h.L1D.BeginReconstruction()
	h.L2.BeginReconstruction()

	st := CacheReconStats{ScannedRefs: uint64(len(log))}
	for i := len(log) - 1; i >= 0; i-- {
		r := &log[i]
		if r.IsInstr {
			if h.L1I.ReconstructRef(r.Addr, false) {
				st.Applied++
			}
		} else {
			if h.L1D.ReconstructRef(r.Addr, r.IsStore) {
				st.Applied++
			}
		}
		if h.L2.ReconstructRef(r.Addr, !r.IsInstr && r.IsStore) {
			st.Applied++
		}
	}
	return st
}

// beginRegionDirect installs the raw branch log: the forward pass runs from
// the predictor's own stale GHR rather than from zero with fixups, and the
// on-demand scan reads the log in place.
func (p *ReconPredictor) beginRegionDirect(log []trace.BranchRecord) {
	p.log = log
	p.pos = len(p.log) - 1
	p.finished = len(p.log) == 0

	p.resetEntries()
	p.stats = PredReconStats{}

	p.ghrAt = make([]uint64, len(p.log))
	ghr := p.unit.Dir.GHR() // stale = value when the log begins
	mask := uint64(1)<<uint(p.unit.Dir.HistoryBits()) - 1
	for i := range log {
		r := &log[i]
		if r.Class != isa.ClassBranch {
			continue
		}
		p.ghrAt[i] = ghr
		ghr = (ghr << 1) & mask
		if r.Taken {
			ghr |= 1
		}
	}
	p.unit.Dir.SetGHR(ghr)
	p.installRAS(planRASFills(p.log, p.unit.RAS.Depth(), nil, nil))
}

// reconstructCaches is the production path in one call: plan, then apply.
func reconstructCaches(h *mem.Hierarchy, log []trace.MemRecord) CacheReconStats {
	var plan CacheReconPlan
	PlanCacheRecon(NewCachePlanner(h.Config()), log, &plan)
	return ApplyCacheRecon(h, &plan)
}

// beginRegion is the production path in one call: plan, then install.
func beginRegion(p *ReconPredictor, log []trace.BranchRecord) {
	var plan PredReconPlan
	PlanPredRecon(PredGeomOf(p.Unit()), log, &plan)
	p.BeginRegionPlan(&plan)
}
