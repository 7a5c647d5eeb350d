package core

import (
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// CacheReconStats summarizes one reverse cache-reconstruction pass.
type CacheReconStats struct {
	// ScannedRefs is how many memory records the pass read: all of the
	// skip-region log, the log being the window the region's method chose to
	// keep.
	ScannedRefs uint64
	// Applied counts state-mutating reconstruction operations across the
	// three caches; the remainder of the scanned references were isolated as
	// ineffectual without profiling.
	Applied uint64
}

// CacheReconRef is one plan entry: a logged reference that will mutate cache
// state, with per-level flags saying which caches it must be offered to.
type CacheReconRef struct {
	Addr    uint64
	IsStore bool
	IsInstr bool
	L1      bool // offer to the L1 of its stream (L1I for fetches, L1D for data)
	L2      bool
}

// CacheReconPlan is the product of the §3.1 reverse pass: the logged memory
// references — the region's window, cut at log time — are scanned
// newest-to-oldest, and the plan keeps exactly those that mutate state, in
// scan order, each flagged with the cache levels it applies to — the L1 of its
// stream and the L2 (the paper applies reconstruction updates to both levels
// directly).
// The scan reads only the log, so it can run off the walker; applying the plan
// to the shared hierarchy then touches O(applied) ≤ O(total cache ways)
// references. PlanCacheRecon overwrites a plan in place and keeps its Refs
// storage, so a recycled plan is rebuilt without allocating.
type CacheReconPlan struct {
	Refs        []CacheReconRef
	ScannedRefs uint64
	// Open is applied after Refs when either of its flags is set: the fetch a
	// window cut from a longer log logs where it opens (CutPlan.Cut). A plan
	// PlanCacheRecon makes has none.
	Open CacheReconRef
}

// cacheGeom mirrors mem.Cache's index math so a planner can predict the
// apply/skip decision from the log alone.
type cacheGeom struct {
	lineShift uint
	setMask   uint64
	assoc     int32
}

func geomOf(cfg mem.CacheConfig) cacheGeom {
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return cacheGeom{lineShift: shift, setMask: uint64(sets - 1), assoc: int32(cfg.Assoc)}
}

// plannerSet is one set's pass state: how many blocks the current pass has
// applied to it. It is current exactly when epoch equals the planner's, the
// mem.Cache.reconEpoch device, so starting a pass costs an epoch bump instead
// of a sweep over the sets.
type plannerSet struct {
	epoch uint32
	used  int32
}

// cachePlanner decides, from log-derived state only, which references
// mem.Cache.ReconstructRef would apply. The decision never reads the cache's
// stale contents: a reference applies exactly when its set still has stale ways
// left AND its block has not already been applied this pass — "present and
// reconstructed" in the real cache implies an earlier applied reference to
// the same block, and both the present-stale and absent cases mutate state
// and consume one way. TestPlanCacheReconMatchesDirect pins the equivalence.
// The blocks applied to a set are its first `used` slots of blocks, so a set
// holds at most assoc of them and membership is a scan of one short row.
type cachePlanner struct {
	geom   cacheGeom
	epoch  uint32
	sets   []plannerSet
	blocks []uint64 // sets × assoc, set-major
}

func newCachePlanner(cfg mem.CacheConfig) cachePlanner {
	g := geomOf(cfg)
	sets := int(g.setMask) + 1
	return cachePlanner{geom: g, sets: make([]plannerSet, sets), blocks: make([]uint64, sets*cfg.Assoc)}
}

// begin starts a pass. Epoch zero is never live, so fresh sets read as stale;
// on wrap-around the stamps are cleared once.
func (p *cachePlanner) begin() {
	p.epoch++
	if p.epoch == 0 {
		clear(p.sets)
		p.epoch = 1
	}
}

// offer reports whether the reference would mutate this cache's state.
func (p *cachePlanner) offer(addr uint64) bool {
	block := addr >> p.geom.lineShift
	si := block & p.geom.setMask
	set := &p.sets[si]
	if set.epoch != p.epoch {
		set.epoch, set.used = p.epoch, 0
	}
	if set.used == p.geom.assoc {
		return false // set fully reconstructed
	}
	row := p.blocks[int(si)*int(p.geom.assoc):][:set.used]
	for _, b := range row {
		if b == block {
			return false // redundant: effect already processed
		}
	}
	row = row[:set.used+1]
	row[set.used] = block
	set.used++
	return true
}

// probe reports whether offering addr would mutate this cache's state,
// without offering it.
func (p *cachePlanner) probe(addr uint64) bool {
	block := addr >> p.geom.lineShift
	si := block & p.geom.setMask
	set := &p.sets[si]
	if set.epoch != p.epoch {
		return true
	}
	if set.used == p.geom.assoc {
		return false
	}
	for _, b := range p.blocks[int(si)*int(p.geom.assoc):][:set.used] {
		if b == block {
			return false
		}
	}
	return true
}

// CachePlanner is PlanCacheRecon's reusable scratch: one decision replayer
// per cache of the hierarchy, and the array a pass collects its plan in — how
// long a plan is is known only at the end, so a plan's own Refs gets one copy
// of the right size instead of the several append would grow through. It is
// not safe for concurrent use; each planning goroutine holds its own.
type CachePlanner struct {
	l1i, l1d, l2 cachePlanner
	refs         []CacheReconRef
}

// NewCachePlanner builds planning scratch for hierarchies of geometry cfg.
func NewCachePlanner(cfg mem.HierarchyConfig) *CachePlanner {
	return &CachePlanner{l1i: newCachePlanner(cfg.L1I), l1d: newCachePlanner(cfg.L1D), l2: newCachePlanner(cfg.L2)}
}

// PlanCacheRecon runs the reverse pass over all of log without a hierarchy,
// materializing the warm-apply plan into plan. It is safe to call from
// producer goroutines: it reads only the log and touches only pl and plan,
// and with a reused planner and plan it does not allocate once plan.Refs has
// reached the pass's size.
func PlanCacheRecon(pl *CachePlanner, log []trace.MemRecord, plan *CacheReconPlan) {
	pl.begin()
	refs := pl.scan(pl.refs[:0], log)
	pl.refs = refs
	*plan = CacheReconPlan{Refs: append(plan.Refs[:0], refs...), ScannedRefs: uint64(len(log))}
}

// begin starts a reverse pass on every cache.
func (pl *CachePlanner) begin() {
	pl.l1i.begin()
	pl.l1d.begin()
	pl.l2.begin()
}

// scan offers log's references, newest to oldest, to the L1 of their stream
// and to the L2, and appends to refs each that mutates either.
func (pl *CachePlanner) scan(refs []CacheReconRef, log []trace.MemRecord) []CacheReconRef {
	for i := len(log) - 1; i >= 0; i-- {
		r := &log[i]
		var applyL1 bool
		if r.IsInstr {
			applyL1 = pl.l1i.offer(r.Addr)
		} else {
			applyL1 = pl.l1d.offer(r.Addr)
		}
		applyL2 := pl.l2.offer(r.Addr)
		if applyL1 || applyL2 {
			refs = append(refs, CacheReconRef{
				Addr: r.Addr, IsStore: r.IsStore, IsInstr: r.IsInstr,
				L1: applyL1, L2: applyL2,
			})
		}
	}
	return refs
}

// ApplyCacheRecon applies a materialized plan to the shared hierarchy: the
// consumer-side half of the reverse pass. Reconstructed bits are cleared
// first; the caches' stale contents from the previous cluster remain as the
// below-reconstructed LRU tail. The ReconstructRef calls it makes are exactly
// the mutating subset of what offering every scanned reference to the caches
// would make, in the same order, so cache contents, event counters, and the
// returned stats match that direct scan byte for byte
// (TestPlanCacheReconMatchesDirect).
func ApplyCacheRecon(h *mem.Hierarchy, plan *CacheReconPlan) CacheReconStats {
	h.L1I.BeginReconstruction()
	h.L1D.BeginReconstruction()
	h.L2.BeginReconstruction()

	return CacheReconStats{ScannedRefs: plan.ScannedRefs,
		Applied: applyRefs(h, plan.Refs) + applyRefs(h, []CacheReconRef{plan.Open})}
}

// applyRefs offers each of refs to the caches its flags name and returns how
// many mutations that made.
func applyRefs(h *mem.Hierarchy, refs []CacheReconRef) (applied uint64) {
	for i := range refs {
		r := &refs[i]
		if r.L1 {
			if r.IsInstr {
				if h.L1I.ReconstructRef(r.Addr, false) {
					applied++
				}
			} else if h.L1D.ReconstructRef(r.Addr, r.IsStore) {
				applied++
			}
		}
		if r.L2 && h.L2.ReconstructRef(r.Addr, !r.IsInstr && r.IsStore) {
			applied++
		}
	}
	return applied
}
