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

// reconstructCachesDirect offers the newest percent of the logged references,
// newest to oldest, to the L1 of their stream and to the L2.
func reconstructCachesDirect(h *mem.Hierarchy, log []trace.MemRecord, percent int) CacheReconStats {
	percent = min(max(percent, 0), 100)
	h.L1I.BeginReconstruction()
	h.L1D.BeginReconstruction()
	h.L2.BeginReconstruction()

	n := len(log)
	start := n - n*percent/100
	st := CacheReconStats{LoggedRefs: uint64(n), ScannedRefs: uint64(n - start)}
	for i := n - 1; i >= start; i-- {
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
// on-demand scan reads the log's suffix in place.
func (p *ReconPredictor) beginRegionDirect(fullLog []trace.BranchRecord, percent int) {
	percent = min(max(percent, 0), 100)
	n := len(fullLog)
	start := n - n*percent/100
	p.log = fullLog[start:]
	p.pos = len(p.log) - 1
	p.finished = len(p.log) == 0

	p.resetEntries()
	p.stats = PredReconStats{LoggedBranches: uint64(n)}

	p.ghrAt = make([]uint64, len(p.log))
	ghr := p.unit.Dir.GHR() // stale = value at region start
	mask := uint64(1)<<uint(p.unit.Dir.HistoryBits()) - 1
	for i := 0; i < n; i++ {
		r := &fullLog[i]
		if r.Class != isa.ClassBranch {
			continue
		}
		if i >= start {
			p.ghrAt[i-start] = ghr
		}
		ghr = (ghr << 1) & mask
		if r.Taken {
			ghr |= 1
		}
	}
	p.unit.Dir.SetGHR(ghr)
	p.installRAS(planRASFills(p.log, p.unit.RAS.Depth(), nil))
}

// reconstructCaches is the production path in one call: plan, then apply.
func reconstructCaches(h *mem.Hierarchy, log []trace.MemRecord, percent int) CacheReconStats {
	var plan CacheReconPlan
	PlanCacheRecon(NewCachePlanner(h.Config()), log, percent, &plan)
	return ApplyCacheRecon(h, &plan)
}

// beginRegion is the production path in one call: plan, then install.
func beginRegion(p *ReconPredictor, log []trace.BranchRecord, percent int) {
	var plan PredReconPlan
	PlanPredRecon(PredGeomOf(p.Unit()), log, percent, &plan)
	p.BeginRegionPlan(&plan)
}
