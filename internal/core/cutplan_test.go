package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// TestCutPlanMatchesWindowPlans: cutting one 100% pass at a mark gives the
// plans the window opening there makes of its own log — the log's suffix,
// with the mark's opening fetch first when it has one — record for record,
// and installing either leaves the hierarchy and the predictor in the same
// state. Nothing writes the cut plan.
func TestCutPlanMatchesWindowPlans(t *testing.T) {
	cfg := mem.DefaultHierarchyConfig()
	unit := smallUnit()
	geom := PredGeomOf(unit)
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		memLog := randomMemLog(rng, 20000+rng.Intn(20000))
		brLog := randomBranchLog(rng, 3000+rng.Intn(3000))
		marks := make([]CutMark, 101)
		for p := range marks {
			m := CutMark{Mem: len(memLog) - len(memLog)*p/100, Br: len(brLog) - len(brLog)*p/100}
			if p > 0 && rng.Intn(2) == 0 {
				// The fetch of a line the window's own records may or may
				// not refer to.
				m.Fetch, m.FetchPC = true, 0x400000+uint64(rng.Intn(2048))*64
			}
			marks[p] = m
		}
		c := PlanCuts(NewCachePlanner(cfg), geom, memLog, brLog, marks)
		refs, ghrAt, fills := slices.Clone(c.refs), slices.Clone(c.ghrAt), slices.Clone(c.fills)

		var own, cutCache CacheReconPlan
		var ownPred, cutPred PredReconPlan
		for p, m := range marks {
			window := memLog[m.Mem:]
			if m.Fetch {
				window = append([]trace.MemRecord{{Addr: m.FetchPC, IsInstr: true}}, window...)
			}
			PlanCacheRecon(NewCachePlanner(cfg), window, &own)
			PlanPredRecon(geom, brLog[m.Br:], &ownPred)
			nm, nb := c.Cut(p, &cutCache, &cutPred)
			got := cutCache.Refs
			if cutCache.Open.L1 || cutCache.Open.L2 {
				got = append(slices.Clone(got), cutCache.Open)
			}
			if !slices.Equal(got, own.Refs) || cutCache.ScannedRefs != own.ScannedRefs || nm != len(window) || nb != len(brLog)-m.Br {
				t.Fatalf("trial %d, mark %d: cut %d refs (%d scanned, %d, %d logged), window %d refs (%d scanned)",
					trial, p, len(got), cutCache.ScannedRefs, nm, nb, len(own.Refs), own.ScannedRefs)
			}
			if !slices.Equal(cutPred.RASFills, ownPred.RASFills) || !slices.Equal(cutPred.Suffix, ownPred.Suffix) {
				t.Fatalf("trial %d, mark %d: RAS fills %v, window's %v", trial, p, cutPred.RASFills, ownPred.RASFills)
			}
			if p%25 != 3 {
				continue
			}
			// Installed on identical stale machines, both leave the same state.
			hs := [2]*mem.Hierarchy{mem.NewHierarchy(cfg), mem.NewHierarchy(cfg)}
			rps := [2]*ReconPredictor{NewReconPredictor(smallUnit()), NewReconPredictor(smallUnit())}
			for k := range hs {
				staleWarm(rand.New(rand.NewSource(77)), hs[k])
				trainStale(rand.New(rand.NewSource(42)), rps[k].Unit())
			}
			if a, b := ApplyCacheRecon(hs[0], &own), ApplyCacheRecon(hs[1], &cutCache); a != b {
				t.Fatalf("trial %d, mark %d: applied %+v, cut %+v", trial, p, a, b)
			}
			for _, pair := range [][2]*mem.Cache{{hs[0].L1I, hs[1].L1I}, {hs[0].L1D, hs[1].L1D}, {hs[0].L2, hs[1].L2}} {
				if mem.Fingerprint(pair[0]) != mem.Fingerprint(pair[1]) || pair[0].Stats() != pair[1].Stats() {
					t.Fatalf("trial %d, mark %d: cache state diverged", trial, p)
				}
			}
			rps[0].BeginRegionPlan(&ownPred)
			rps[1].BeginRegionPlan(&cutPred)
			if rps[0].Unit().Dir.GHR() != rps[1].Unit().Dir.GHR() || !reflect.DeepEqual(rps[0].Unit().RAS.Contents(), rps[1].Unit().RAS.Contents()) {
				t.Fatalf("trial %d, mark %d: GHR or RAS diverged", trial, p)
			}
			for i := range ownPred.Suffix {
				if ownPred.Suffix[i].Class == isa.ClassBranch && rps[0].history(i) != rps[1].history(i) {
					t.Fatalf("trial %d, mark %d: history before record %d diverged", trial, p, i)
				}
			}
			forceFullScan(rps[0])
			forceFullScan(rps[1])
			if rps[0].Stats() != rps[1].Stats() {
				t.Fatalf("trial %d, mark %d: stats %+v, cut %+v", trial, p, rps[0].Stats(), rps[1].Stats())
			}
			for idx := 0; idx < unit.Dir.Entries(); idx++ {
				if rps[0].Unit().Dir.Counter(idx) != rps[1].Unit().Dir.Counter(idx) {
					t.Fatalf("trial %d, mark %d: counter %d diverged", trial, p, idx)
				}
			}
		}
		if !slices.Equal(refs, c.refs) || !slices.Equal(ghrAt, c.ghrAt) || !slices.Equal(fills, c.fills) {
			t.Fatalf("trial %d: the cut plan was written", trial)
		}
	}
}

// TestCutZeroAllocs pins a cut as views: cutting a window and installing its
// predictor plan copy nothing and allocate nothing once the predictor's
// overlay exists.
func TestCutZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	memLog, brLog := randomMemLog(rng, 20000), randomBranchLog(rng, 5000)
	rp := NewReconPredictor(smallUnit())
	c := PlanCuts(NewCachePlanner(mem.DefaultHierarchyConfig()), PredGeomOf(rp.Unit()), memLog, brLog,
		[]CutMark{{Mem: len(memLog) / 2, Br: len(brLog) / 2, Fetch: true, FetchPC: 0x400040}})
	var cache CacheReconPlan
	var pred PredReconPlan
	cut := func() {
		c.Cut(0, &cache, &pred)
		rp.BeginRegionPlan(&pred)
		rp.ReleaseRegion()
	}
	cut()
	if avg := testing.AllocsPerRun(20, cut); avg != 0 {
		t.Fatalf("a cut allocates %.2f", avg)
	}
}
