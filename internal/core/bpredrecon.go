package core

import (
	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/trace"
)

// PredReconStats summarizes branch-predictor reconstruction for one region.
type PredReconStats struct {
	ScannedRecords   uint64 // log records consumed by on-demand scanning
	CountersExact    uint64 // entries pinned uniquely by their history
	CountersInferred uint64 // entries set by the bias/middle-state rule
	BTBInstalled     uint64
	RASInstalled     uint64
	Probes           uint64 // predictions that triggered scanning
}

// ReconPredictor wraps a bpred.Unit with §3.2 on-demand reverse
// reconstruction. After a skip region, call BeginRegionPlan with the plan
// PlanPredRecon made of the region's branch log; during the next cluster the
// timing model probes Predict as usual, and the first probe of a
// not-yet-reconstructed entry consumes the reverse log until that entry is
// resolved — reconstructing every other entry it passes, so the log is
// scanned at most once per region.
type ReconPredictor struct {
	unit *bpred.Unit

	// log and ghrAt alias the plan's log and history arrays until the next
	// BeginRegionPlan or ReleaseRegion: on-demand scanning reads them
	// throughout the hot window, so that storage must not be reused before
	// then. Neither is written: head overlays the histories of the log's
	// first HistoryBits conditionals, the ones the stale GHR reaches.
	log   []trace.BranchRecord // the region's logged window, oldest first
	ghrAt []uint64             // GHR before each log record (conditionals)
	head  []uint64             // ghrAt[:len(head)] with the stale prefix patched in
	pos   int                  // next reverse index to scan; -1 when exhausted

	dirMap   []StateMap
	dirDone  []bool
	touched  []int
	btbDone  []bool
	finished bool

	stats PredReconStats
}

// NewReconPredictor wraps unit.
func NewReconPredictor(unit *bpred.Unit) *ReconPredictor {
	return &ReconPredictor{
		unit:     unit,
		dirMap:   make([]StateMap, unit.Dir.Entries()),
		dirDone:  make([]bool, unit.Dir.Entries()),
		btbDone:  make([]bool, unit.BTB.Entries()),
		finished: true, // nothing to reconstruct until the first region
	}
}

// Unit returns the wrapped prediction hardware.
func (p *ReconPredictor) Unit() *bpred.Unit { return p.unit }

// Stats returns the current region's reconstruction counters.
func (p *ReconPredictor) Stats() PredReconStats { return p.stats }

// resetEntries returns the per-entry possible-state tracking to "nothing
// known" at memory bandwidth: the identity fill doubles a seeded prefix with
// copy instead of storing one entry per iteration.
func (p *ReconPredictor) resetEntries() {
	if len(p.dirMap) > 0 {
		p.dirMap[0] = IdentityMap
		for n := 1; n < len(p.dirMap); n *= 2 {
			copy(p.dirMap[n:], p.dirMap[:n])
		}
	}
	clear(p.dirDone)
	clear(p.btbDone)
	p.touched = p.touched[:0]
}

// ReleaseRegion ends the current region's on-demand reconstruction and drops
// the predictor's references to the region's log, so the caller may reuse
// that storage. Entries the scan had not reached stay stale, exactly as if
// they were never probed; Stats keeps the region's counters.
func (p *ReconPredictor) ReleaseRegion() {
	p.log, p.ghrAt, p.head = nil, nil, p.head[:0]
	p.pos = -1
	p.finished = true
}

// planRASFills appends to fills the RAS contents (youngest first) the reverse
// counter algorithm reconstructs from the log: scanning newest-to-oldest,
// a pop increments the counter; a push with counter zero lands at the end
// (bottom) of the stack; otherwise a push cancels a pop. Reconstruction stops
// when the stack is full. A pure function of the log, safe to run off the
// walker. With at not nil, it also appends there the log index of each fill's
// call.
func planRASFills(log []trace.BranchRecord, depth int, fills []uint64, at *[]int) []uint64 {
	counter := 0
	for i := len(log) - 1; i >= 0 && len(fills) < depth; i-- {
		r := &log[i]
		switch {
		case r.IsReturn():
			counter++
		case r.IsCall():
			if counter == 0 {
				fills = append(fills, r.PC+isa.InstBytes)
				if at != nil {
					*at = append(*at, i)
				}
			} else {
				counter--
			}
		}
	}
	return fills
}

// planHistories stores in ghrAt, which is as long as log, the GHR before each
// conditional of log, starting from zero, and returns the GHR after the last:
// only conditional branches shift history, matching Unit.Update.
func planHistories(historyBits int, log []trace.BranchRecord, ghrAt []uint64) uint64 {
	mask := uint64(1)<<uint(historyBits) - 1
	ghr := uint64(0)
	for i := range log {
		r := &log[i]
		if r.Class != isa.ClassBranch {
			ghrAt[i] = 0 // never read: only conditionals index by history
			continue
		}
		ghrAt[i] = ghr
		ghr = (ghr << 1) & mask
		if r.Taken {
			ghr |= 1
		}
	}
	return ghr
}

func (p *ReconPredictor) installRAS(fills []uint64) {
	p.unit.RAS.Clear()
	for i := len(fills) - 1; i >= 0; i-- {
		p.unit.RAS.Push(fills[i])
	}
	p.stats.RASInstalled = uint64(len(fills))
}

// PredGeom is the predictor geometry a planner off the walker needs: a snapshot
// of plain ints so producer goroutines never touch the shared bpred.Unit.
type PredGeom struct {
	HistoryBits int
	DirEntries  int
	BTBEntries  int
	RASDepth    int
}

// PredGeomOf snapshots unit's geometry.
func PredGeomOf(u *bpred.Unit) PredGeom {
	return PredGeom{
		HistoryBits: u.Dir.HistoryBits(),
		DirEntries:  u.Dir.Entries(),
		BTBEntries:  u.BTB.Entries(),
		RASDepth:    u.RAS.Depth(),
	}
}

// PredReconPlan is the product of §3.2's eager steps over a region's branch
// log — the window of the region its method chose to keep: the global history
// register is rebuilt from the logged outcomes, the RAS by the reverse push/pop
// counter algorithm, and the log itself is what the on-demand scan may consume.
// All of it is a pure function of the log except for the one stale input: the
// GHR value left in the shared predictor when the log begins, so the plan can
// be made off the walker. The GHR after k conditional shifts from stale value g is
// ((g<<k) | pure_k) & mask,
// where pure_k is the same iteration started from zero — masking commutes
// with the shift-and-or recurrence — and has k bits, so the plan records
// histories whose low k bits are pure_k, and BeginRegionPlan ORs the real
// stale prefix into the first HistoryBits conditionals' (the ones it has not
// yet shifted out of) in an overlay of its own: nobody writes a plan once made.
// For a log that opens part-way through a region the stale value stands in
// for the outcomes between the previous cluster and the window, on those
// same first HistoryBits conditionals and nowhere else.
// PlanPredRecon's plan is self-contained: it carries its own copy of the log,
// so the log itself is dead once the plan exists, and PlanPredRecon
// overwrites a plan in place and keeps its array storage, so a recycled plan
// is rebuilt without allocating. A CutPlan's cut is a view instead: its
// arrays are slices of the cut plan, which holds the log.
type PredReconPlan struct {
	Suffix []trace.BranchRecord // the log, oldest first

	GHRAt    []uint64 // pre-record GHRs; the low k bits of the k-th conditional's are pure_k
	FinalGHR uint64   // log-final GHR, its low min(conditionals, HistoryBits) bits pure

	RASFills []uint64 // reconstructed RAS contents, youngest first
}

// PlanPredRecon runs the forward pass over log — the GHR before every
// conditional (their table indices depend on it) and the final GHR — and the
// RAS reconstruction, without a predictor, materializing the plan into plan,
// which keeps no reference to the log. Safe for producer goroutines: it reads
// only the log and the geometry snapshot.
func PlanPredRecon(geom PredGeom, log []trace.BranchRecord, plan *PredReconPlan) {
	n := len(log)
	ghrAt := plan.GHRAt
	if cap(ghrAt) < n {
		ghrAt = make([]uint64, n)
	}
	ghrAt = ghrAt[:n]
	*plan = PredReconPlan{
		Suffix:   append(plan.Suffix[:0], log...),
		GHRAt:    ghrAt,
		FinalGHR: planHistories(geom.HistoryBits, log, ghrAt),
		RASFills: planRASFills(log, geom.RASDepth, plan.RASFills[:0], nil),
	}
}

// BeginRegionPlan starts a region's reconstruction from a plan of its log
// under this predictor's geometry — PlanPredRecon's, or a CutPlan's cut: it
// patches the stale GHR prefix into an overlay of the first HistoryBits
// conditionals' histories, installs the final GHR and reconstructed RAS, and
// resets the per-entry possible-state tracking. The predictor then reads
// plan.Suffix and plan.GHRAt in place until the region is released, and
// writes neither.
func (p *ReconPredictor) BeginRegionPlan(plan *PredReconPlan) {
	stale := p.unit.Dir.GHR()
	bits := uint(p.unit.Dir.HistoryBits())
	mask := uint64(1)<<bits - 1
	head := p.head[:0]
	k := uint(0) // conditionals so far, while fewer than bits
	for i := 0; i < len(plan.Suffix) && k < bits; i++ {
		g := plan.GHRAt[i]
		if plan.Suffix[i].Class == isa.ClassBranch {
			g = (g&(1<<k-1) | stale<<k) & mask
			k++
		}
		head = append(head, g)
	}
	p.head = head
	p.log = plan.Suffix
	p.ghrAt = plan.GHRAt
	p.pos = len(p.log) - 1
	p.finished = len(p.log) == 0

	p.resetEntries()
	p.stats = PredReconStats{}

	p.unit.Dir.SetGHR((plan.FinalGHR&(1<<k-1) | stale<<k) & mask)
	p.installRAS(plan.RASFills)
}

// history is the GHR before log record i, the stale prefix included.
func (p *ReconPredictor) history(i int) uint64 {
	if i < len(p.head) {
		return p.head[i]
	}
	return p.ghrAt[i]
}

// scanStep consumes one log record (reverse order), applying BTB and
// direction-table reconstruction.
func (p *ReconPredictor) scanStep() {
	r := &p.log[p.pos]
	p.pos--
	p.stats.ScannedRecords++

	// Mirror the forward training policy exactly: conditional-taken
	// branches, jumps, and calls install BTB entries; returns do not (they
	// are predicted through the RAS).
	if r.Taken && r.Class != isa.ClassReturn {
		bidx := p.unit.BTB.Index(r.PC)
		if !p.btbDone[bidx] {
			// First reverse occurrence = last forward update = final state.
			p.unit.BTB.Update(r.PC, r.NextPC)
			p.btbDone[bidx] = true
			p.stats.BTBInstalled++
		}
	}
	if r.Class == isa.ClassBranch {
		idx := p.unit.Dir.IndexFor(r.PC, p.history(p.pos+1))
		if !p.dirDone[idx] {
			if p.dirMap[idx] == IdentityMap {
				p.touched = append(p.touched, idx)
			}
			p.dirMap[idx] = ExtendMap(p.dirMap[idx], r.Taken)
			if res := Resolve(p.dirMap[idx]); res.Exact {
				p.unit.Dir.SetCounter(idx, res.Value)
				p.dirDone[idx] = true
				p.stats.CountersExact++
			}
		}
	}
	if p.pos < 0 {
		p.finalize()
	}
}

// finalize applies the a-priori inference to every touched, unresolved entry
// once the history has been consumed: biased histories yield the weak form,
// three candidates the middle state; untouched entries stay stale.
func (p *ReconPredictor) finalize() {
	for _, idx := range p.touched {
		if p.dirDone[idx] {
			continue
		}
		if res := Resolve(p.dirMap[idx]); res.Known {
			p.unit.Dir.SetCounter(idx, res.Value)
			p.stats.CountersInferred++
		}
		p.dirDone[idx] = true
	}
	p.finished = true
}

// scanUntil consumes the reverse log until done reports true or the log is
// exhausted.
func (p *ReconPredictor) scanUntil(done func() bool) {
	p.stats.Probes++
	for !p.finished && !done() {
		p.scanStep()
	}
}

// Predict probes the predictor, reconstructing the probed entries on demand
// first (§3.2: "If not, the entry is first reconstructed before hot
// execution continues").
func (p *ReconPredictor) Predict(pc uint64, class isa.Class) bpred.Prediction {
	if !p.finished {
		switch class {
		case isa.ClassBranch:
			idx := p.unit.Dir.Index(pc)
			bidx := p.unit.BTB.Index(pc)
			if !p.dirDone[idx] || !p.btbDone[bidx] {
				p.scanUntil(func() bool { return p.dirDone[idx] && p.btbDone[bidx] })
			}
		case isa.ClassJump, isa.ClassCall, isa.ClassJumpIndirect:
			bidx := p.unit.BTB.Index(pc)
			if !p.btbDone[bidx] {
				p.scanUntil(func() bool { return p.btbDone[bidx] })
			}
		}
		// Returns use the RAS, which was reconstructed eagerly.
	}
	return p.unit.Predict(pc, class)
}

// Update trains the wrapped unit and pins the trained entries as live: a
// later reconstruction scan must not overwrite newer in-cluster state with
// older skip-region state.
func (p *ReconPredictor) Update(r trace.BranchRecord) {
	if !p.finished {
		if r.Class == isa.ClassBranch {
			p.dirDone[p.unit.Dir.Index(r.PC)] = true
		}
		if r.Taken && r.Class != isa.ClassReturn {
			p.btbDone[p.unit.BTB.Index(r.PC)] = true
		}
	}
	p.unit.Update(r)
}

var _ bpred.Predictor = (*ReconPredictor)(nil)
