package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// randomMemLog builds a skip-region memory log with instruction and data
// streams, stores, and enough reuse to exercise the redundant path.
func randomMemLog(rng *rand.Rand, n int) []trace.MemRecord {
	log := make([]trace.MemRecord, 0, n)
	for len(log) < n {
		r := trace.MemRecord{IsInstr: rng.Intn(4) == 0}
		if r.IsInstr {
			r.Addr = 0x400000 + uint64(rng.Intn(2048))*64
		} else {
			r.Addr = uint64(rng.Intn(8192)) * 64
			r.IsStore = rng.Intn(4) == 0
		}
		log = append(log, r)
	}
	return log
}

// staleWarm pre-populates a hierarchy so reconstruction runs against stale
// contents (present-and-stale blocks, dirty victims) rather than empty sets.
func staleWarm(rng *rand.Rand, h *mem.Hierarchy) {
	for i := 0; i < 30000; i++ {
		if rng.Intn(4) == 0 {
			h.WarmInst(0x400000 + uint64(rng.Intn(4096))*64)
		} else {
			h.WarmData(uint64(rng.Intn(16384))*64, rng.Intn(3) == 0)
		}
	}
}

// TestPlanCacheReconMatchesDirect pins the tentpole's split: a plan built
// from the log alone, applied to the shared hierarchy, must reproduce the
// direct reverse pass byte for byte — tags, LRU order, dirty bits, event
// counters, and returned stats — at every warm-up percentage.
func TestPlanCacheReconMatchesDirect(t *testing.T) {
	cfg := mem.DefaultHierarchyConfig()
	planner := NewCachePlanner(cfg)
	var plan CacheReconPlan
	for _, percent := range []int{0, 20, 55, 100, 20} {
		rng := rand.New(rand.NewSource(int64(100 + percent)))
		log := newest(randomMemLog(rng, 50000), percent)

		direct := mem.NewHierarchy(cfg)
		planned := mem.NewHierarchy(cfg)
		seed := rand.New(rand.NewSource(77))
		staleWarm(seed, direct)
		seed = rand.New(rand.NewSource(77))
		staleWarm(seed, planned)

		// The planner and the plan are reused across percentages, as a run
		// reuses them across regions: no state may leak between passes.
		want := reconstructCachesDirect(direct, log)
		PlanCacheRecon(planner, log, &plan)
		got := ApplyCacheRecon(planned, &plan)

		if got != want {
			t.Fatalf("percent %d: stats diverged: plan %+v direct %+v", percent, got, want)
		}
		if uint64(len(plan.Refs)) != want.Applied && percent > 0 {
			// Every plan ref mutates at least one cache, and a ref may hit
			// both its L1 and the L2, so Applied >= len(Refs).
			if uint64(len(plan.Refs)) > want.Applied {
				t.Fatalf("percent %d: plan has %d refs but only %d applied", percent, len(plan.Refs), want.Applied)
			}
		}
		for _, pair := range [][2]*mem.Cache{
			{direct.L1I, planned.L1I}, {direct.L1D, planned.L1D}, {direct.L2, planned.L2},
		} {
			if mem.Fingerprint(pair[0]) != mem.Fingerprint(pair[1]) {
				t.Fatalf("percent %d: cache state diverged between direct and planned pass", percent)
			}
			if pair[0].Stats() != pair[1].Stats() {
				t.Fatalf("percent %d: cache event counters diverged: %+v vs %+v",
					percent, pair[0].Stats(), pair[1].Stats())
			}
		}
	}
}

// trainStale leaves both units with identical non-trivial stale state (GHR,
// counters, BTB, RAS) so the plan's stale-prefix fixups are exercised.
func trainStale(rng *rand.Rand, u *bpred.Unit) {
	for _, r := range randomBranchLog(rng, 400) {
		u.Update(r)
	}
}

// TestBeginRegionPlanMatchesDirect pins the predictor half of the split:
// installing a plan built off the walker must leave the ReconPredictor — eager state
// and the lazily scanned remainder — exactly where the direct pass over the
// raw log leaves it.
func TestBeginRegionPlanMatchesDirect(t *testing.T) {
	var plan PredReconPlan // reused across trials, as a run reuses it across regions
	for _, percent := range []int{20, 100} {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*percent + trial)))
			log := newest(randomBranchLog(rng, 1500+rng.Intn(2000)), percent)

			direct := NewReconPredictor(smallUnit())
			planned := NewReconPredictor(smallUnit())
			trainStale(rand.New(rand.NewSource(42)), direct.Unit())
			trainStale(rand.New(rand.NewSource(42)), planned.Unit())

			direct.beginRegionDirect(log)
			geom := PredGeomOf(planned.Unit())
			PlanPredRecon(geom, log, &plan)
			planned.BeginRegionPlan(&plan)

			if got, want := planned.Unit().Dir.GHR(), direct.Unit().Dir.GHR(); got != want {
				t.Fatalf("percent %d trial %d: GHR %#x != %#x", percent, trial, got, want)
			}
			if got, want := planned.Unit().RAS.Contents(), direct.Unit().RAS.Contents(); !reflect.DeepEqual(got, want) {
				t.Fatalf("percent %d trial %d: RAS %v != %v", percent, trial, got, want)
			}
			for i := range log {
				if log[i].Class == isa.ClassBranch && planned.history(i) != direct.history(i) {
					t.Fatalf("percent %d trial %d: planned history before record %d diverged", percent, trial, i)
				}
			}
			if planned.Stats() != direct.Stats() {
				t.Fatalf("percent %d trial %d: stats %+v != %+v", percent, trial, planned.Stats(), direct.Stats())
			}

			// Drive both through identical probe/scan traffic and compare the
			// final table state entry by entry.
			for i := len(log) - 1; i >= 0; i -= 7 {
				direct.Predict(log[i].PC, log[i].Class)
				planned.Predict(log[i].PC, log[i].Class)
			}
			forceFullScan(direct)
			forceFullScan(planned)
			if planned.Stats() != direct.Stats() {
				t.Fatalf("percent %d trial %d: post-scan stats %+v != %+v", percent, trial, planned.Stats(), direct.Stats())
			}
			for idx := 0; idx < planned.Unit().Dir.Entries(); idx++ {
				if got, want := planned.Unit().Dir.Counter(idx), direct.Unit().Dir.Counter(idx); got != want {
					t.Fatalf("percent %d trial %d: counter[%d] %d != %d", percent, trial, idx, got, want)
				}
			}
			for _, r := range log {
				gt, gok := planned.Unit().BTB.Lookup(r.PC)
				wt, wok := direct.Unit().BTB.Lookup(r.PC)
				if gok != wok || (gok && gt != wt) {
					t.Fatalf("percent %d trial %d: BTB mismatch at %#x", percent, trial, r.PC)
				}
			}
		}
	}
}

// TestPlanReconZeroAllocs pins the producers' Seal as allocation-free once
// its scratch exists: the planner's per-set state restarts by epoch and both
// plans are rebuilt inside their previous storage.
func TestPlanReconZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	memLog := randomMemLog(rng, 50000)
	brLog := randomBranchLog(rng, 20000)
	planner := NewCachePlanner(mem.DefaultHierarchyConfig())
	geom := PredGeomOf(smallUnit())
	var cachePlan CacheReconPlan
	var predPlan PredReconPlan
	plan := func() {
		PlanCacheRecon(planner, memLog, &cachePlan)
		PlanPredRecon(geom, brLog, &predPlan)
	}
	plan()
	if avg := testing.AllocsPerRun(20, plan); avg != 0 {
		t.Fatalf("planning with reused scratch allocates %.2f per region", avg)
	}
}

// TestReleaseRegionDropsLog pins the lifetime rule's enforcement point: once
// released, the predictor no longer reads the region's log or history array,
// so overwriting them — as a recycled buffer would be — changes nothing.
func TestReleaseRegionDropsLog(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	log := randomBranchLog(rng, 3000)
	var plan PredReconPlan
	p := NewReconPredictor(smallUnit())
	PlanPredRecon(PredGeomOf(p.Unit()), log, &plan)
	p.BeginRegionPlan(&plan)
	p.Predict(log[len(log)-1].PC, log[len(log)-1].Class)
	p.ReleaseRegion()
	before := p.Stats()
	for i := range log {
		log[i] = trace.BranchRecord{}
	}
	clear(plan.GHRAt)
	for _, pc := range []uint64{0x400000, 0x400040, 0x401000} {
		want := p.Unit().Predict(pc, isa.ClassBranch)
		if got := p.Predict(pc, isa.ClassBranch); got != want {
			t.Fatalf("released predictor at %#x: %+v, wrapped unit %+v", pc, got, want)
		}
	}
	if p.Stats() != before {
		t.Fatalf("released predictor kept scanning: %+v -> %+v", before, p.Stats())
	}
}
