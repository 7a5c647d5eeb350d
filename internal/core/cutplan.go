package core

import (
	"slices"
	"unsafe"

	"rsr/internal/trace"
)

// CutPlan is the reverse pass over one region's whole cold log — its 100%
// window — made once per hierarchy and predictor geometry and cut for every
// window that opens at one of the log's marks. A window that opens later is
// a suffix of the log, so its reverse scan reads a prefix of the 100% scan in
// the same order; a planner decides from what it has already seen, so the
// window's cache plan is a prefix of the 100% plan (§3.1: an ineffectual
// reference is skipped, and a fully reconstructed set takes no more). The one
// record a window logs that the whole log may not is the fetch it logs where
// it opens, when the log collapsed that fetch into the line before: it is
// last in the window's scan order, so the pass probes it at each mark without
// offering it, and it adds at most one reference. On the predictor's side the
// histories over the whole log differ from a window's own only in the stale
// prefix of the window's first HistoryBits conditionals, which
// ReconPredictor.BeginRegionPlan overlays per region anyway, and the RAS a
// window's reverse scan fills are the whole scan's fills from calls at or
// after its start.
//
// A CutPlan is never written once made, so any number of runs may cut it at
// once; a cut's plans are views of it (Cut).
type CutPlan struct {
	refs     []CacheReconRef // the 100% window's cache plan, in scan order
	cuts     []cut           // one per mark
	mem      int             // memory records in the log
	branches []trace.BranchRecord
	ghrAt    []uint64 // GHR before each branch record, from zero at the log's start
	finalGHR uint64
	fills    []uint64 // the whole log's RAS fills, youngest first
	fillAt   []int    // the log index of each fill's call
}

// CutMark is where a window opens in a region's log: the index of its first
// memory and branch record, and, when Fetch is set, the address of the fetch
// the window logs there that the log does not hold.
type CutMark struct {
	Mem, Br int
	Fetch   bool
	FetchPC uint64
}

// cut is one mark's share of the 100% pass.
type cut struct {
	refs    int           // references the 100% scan had planned at the mark
	mem, br int           // the window's first records
	fetch   bool          // the window logs an opening fetch
	open    CacheReconRef // what that fetch mutates, offered last
}

// PlanCuts makes the cut plan of a region's cold log — mem and br, the phase
// logged whole as a 100% Cache and BPred window logs it — under pl's
// hierarchy geometry and geom's predictor, for windows opening at marks in
// scan order: neither index of marks[i] grows with i. The plan keeps br, which
// must not be written afterwards, but not mem. Like PlanCacheRecon it is safe
// to call from any goroutine that holds pl.
func PlanCuts(pl *CachePlanner, geom PredGeom, mem []trace.MemRecord, br []trace.BranchRecord, marks []CutMark) *CutPlan {
	c := &CutPlan{cuts: make([]cut, len(marks)), mem: len(mem), branches: br, ghrAt: make([]uint64, len(br))}
	pl.begin()
	refs := pl.refs[:0]
	i := len(mem) // mem[i:] has been offered
	for k, m := range marks {
		if m.Mem < i {
			refs, i = pl.scan(refs, mem[m.Mem:i]), m.Mem
		}
		ct := cut{refs: len(refs), mem: m.Mem, br: m.Br, fetch: m.Fetch}
		if m.Fetch {
			ct.open = CacheReconRef{Addr: m.FetchPC, IsInstr: true, L1: pl.l1i.probe(m.FetchPC), L2: pl.l2.probe(m.FetchPC)}
		}
		c.cuts[k] = ct
	}
	pl.refs = refs
	c.refs = slices.Clone(refs)
	c.finalGHR = planHistories(geom.HistoryBits, br, c.ghrAt)
	c.fills = planRASFills(br, geom.RASDepth, nil, &c.fillAt)
	return c
}

// Cut makes cache and pred the plans of the window opening at marks[i], as
// views of c that nothing may write, and returns how many memory and branch
// records that window logs.
func (c *CutPlan) Cut(i int, cache *CacheReconPlan, pred *PredReconPlan) (mem, br int) {
	ct := &c.cuts[i]
	mem, br = c.mem-ct.mem, len(c.branches)-ct.br
	if ct.fetch {
		mem++
	}
	*cache = CacheReconPlan{Refs: c.refs[:ct.refs:ct.refs], ScannedRefs: uint64(mem), Open: ct.open}
	fills := 0
	for fills < len(c.fillAt) && c.fillAt[fills] >= ct.br {
		fills++
	}
	*pred = PredReconPlan{Suffix: c.branches[ct.br:], GHRAt: c.ghrAt[ct.br:], FinalGHR: c.finalGHR, RASFills: c.fills[:fills:fills]}
	return mem, br
}

// Bytes is the memory c holds beyond the log it shares.
func (c *CutPlan) Bytes() int64 {
	return int64(unsafe.Sizeof(*c) + uintptr(cap(c.refs))*unsafe.Sizeof(CacheReconRef{}) +
		uintptr(cap(c.cuts))*unsafe.Sizeof(cut{}) + uintptr(cap(c.ghrAt)+cap(c.fills)+cap(c.fillAt))*8)
}
