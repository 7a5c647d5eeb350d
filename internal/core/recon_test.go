package core

import (
	"math/rand"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

func smallUnit() *bpred.Unit {
	return bpred.NewUnit(bpred.Config{
		Gshare: bpred.GshareConfig{Entries: 4096, HistoryBits: 10},
		BTB:    bpred.BTBConfig{Entries: 256},
		RAS:    bpred.RASConfig{Depth: 8},
	})
}

// randomBranchLog builds a plausible skip-region branch log.
func randomBranchLog(rng *rand.Rand, n int) []trace.BranchRecord {
	log := make([]trace.BranchRecord, 0, n)
	depth := 0
	for len(log) < n {
		pc := uint64(0x400000 + rng.Intn(400)*4)
		switch k := rng.Intn(10); {
		case k < 6: // conditional
			r := trace.BranchRecord{PC: pc, Taken: rng.Intn(100) < 60, Class: isa.ClassBranch}
			if r.Taken {
				r.NextPC = uint64(0x400000 + rng.Intn(400)*4)
			} else {
				r.NextPC = pc + 4
			}
			log = append(log, r)
		case k < 7: // jump
			log = append(log, trace.BranchRecord{PC: pc, NextPC: uint64(0x400000 + rng.Intn(400)*4), Taken: true, Class: isa.ClassJump})
		case k < 9 && depth < 30: // call
			log = append(log, trace.BranchRecord{PC: pc, NextPC: uint64(0x400000 + rng.Intn(400)*4), Taken: true, Class: isa.ClassCall})
			depth++
		default: // return
			log = append(log, trace.BranchRecord{PC: pc, NextPC: uint64(0x400000 + rng.Intn(400)*4), Taken: true, Class: isa.ClassReturn})
			if depth > 0 {
				depth--
			}
		}
	}
	return log
}

// forceFullScan probes an entry guaranteed not to resolve so the whole log
// is consumed and finalize runs.
func forceFullScan(p *ReconPredictor) {
	for !p.finished {
		p.scanStep()
	}
}

func TestGHRMatchesSMARTS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := randomBranchLog(rng, 2000)

	smarts := smallUnit()
	for _, r := range log {
		smarts.Update(r)
	}
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, log)
	if got, want := rsr.Unit().Dir.GHR(), smarts.Dir.GHR(); got != want {
		t.Fatalf("reconstructed GHR %#x != SMARTS GHR %#x", got, want)
	}
}

func TestExactCountersMatchSMARTS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		log := randomBranchLog(rng, 3000)

		smarts := smallUnit()
		for _, r := range log {
			smarts.Update(r)
		}
		rsr := NewReconPredictor(smallUnit())
		beginRegion(rsr, log)
		forceFullScan(rsr)

		st := rsr.Stats()
		if st.CountersExact == 0 {
			t.Fatal("expected some exactly-resolved counters")
		}
		// Every index the recon claims exact must match the SMARTS value.
		// Recompute which indices were exact by replaying the maps.
		for _, idx := range rsr.touched {
			m := rsr.dirMap[idx]
			res := Resolve(m)
			if res.Exact {
				if got, want := rsr.Unit().Dir.Counter(idx), smarts.Dir.Counter(idx); got != want {
					t.Fatalf("trial %d idx %d: exact counter %d != SMARTS %d", trial, idx, got, want)
				}
			}
		}
	}
}

func TestBTBMatchesSMARTS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	log := randomBranchLog(rng, 3000)

	smarts := smallUnit()
	for _, r := range log {
		smarts.Update(r)
	}
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, log)
	forceFullScan(rsr)

	// Every taken branch PC in the log: the reconstructed BTB must predict
	// the same target as the SMARTS-warmed BTB.
	for _, r := range log {
		if !r.Taken {
			continue
		}
		gotT, gotOK := rsr.Unit().BTB.Lookup(r.PC)
		wantT, wantOK := smarts.BTB.Lookup(r.PC)
		if gotOK != wantOK || (gotOK && gotT != wantT) {
			t.Fatalf("BTB mismatch at pc %#x: (%#x,%v) vs (%#x,%v)", r.PC, gotT, gotOK, wantT, wantOK)
		}
	}
}

func TestRASMatchesSMARTSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		log := randomBranchLog(rng, n)

		smarts := smallUnit()
		for _, r := range log {
			smarts.Update(r)
		}
		rsr := NewReconPredictor(smallUnit())
		beginRegion(rsr, log)

		got := rsr.Unit().RAS.Contents() // youngest first
		want := smarts.RAS.Contents()    // youngest first
		// The reverse counter algorithm is exact for the youngest entries
		// but may retain pushes that forward execution lost to stack
		// overflow, so the forward contents must be a prefix of the
		// reconstructed contents (the paper's approximation).
		if len(got) < len(want) {
			t.Fatalf("trial %d: reconstructed RAS %v misses forward entries %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: RAS[%d] = %#x, want %#x (log len %d)", trial, i, got[i], want[i], n)
			}
		}
	}
}

func TestOnDemandScansOnlyWhatItNeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	log := randomBranchLog(rng, 5000)

	// Find a conditional branch near the end whose entry resolves quickly.
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, log)
	// Probe the very last conditional's PC under the live GHR.
	var pc uint64
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Class == isa.ClassBranch {
			pc = log[i].PC
			break
		}
	}
	rsr.Predict(pc, isa.ClassBranch)
	st := rsr.Stats()
	if st.ScannedRecords == 0 {
		t.Fatal("probe should have triggered scanning")
	}
	if st.ScannedRecords >= uint64(len(log)) {
		t.Skip("entry never resolved; log fully consumed (acceptable, rare)")
	}
}

func TestProbeAfterExhaustionIsCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	log := randomBranchLog(rng, 500)
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, log)
	forceFullScan(rsr)
	before := rsr.Stats().ScannedRecords
	rsr.Predict(0x400100, isa.ClassBranch)
	rsr.Predict(0x400104, isa.ClassJump)
	if rsr.Stats().ScannedRecords != before {
		t.Fatal("probes after exhaustion must not scan")
	}
}

func TestLiveUpdatePinsEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	log := randomBranchLog(rng, 2000)
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, log)

	// Train one entry live (as a retiring cluster branch would) and record
	// which index was written.
	pc := uint64(0x400000)
	idx := rsr.Unit().Dir.Index(pc)
	rsr.Update(trace.BranchRecord{PC: pc, NextPC: pc + 4, Taken: false, Class: isa.ClassBranch})
	trained := rsr.Unit().Dir.Counter(idx)
	if !rsr.dirDone[idx] {
		t.Fatal("live update must pin its entry")
	}
	forceFullScan(rsr)
	if got := rsr.Unit().Dir.Counter(idx); got != trained {
		t.Fatalf("reconstruction overwrote live-trained counter: %d -> %d", trained, got)
	}
	if rsr.Stats().ScannedRecords != uint64(len(rsr.log)) {
		t.Fatalf("scan did not complete: %d of %d", rsr.Stats().ScannedRecords, len(rsr.log))
	}
}

func TestPercentLimitsScanWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	log := randomBranchLog(rng, 1000)
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, newest(log, 20))
	forceFullScan(rsr)
	if got := rsr.Stats().ScannedRecords; got > 200 {
		t.Fatalf("20%% region scanned %d of 1000 records", got)
	}
}

func TestEmptyRegion(t *testing.T) {
	rsr := NewReconPredictor(smallUnit())
	beginRegion(rsr, nil)
	p := rsr.Predict(0x400000, isa.ClassBranch)
	_ = p // must not panic; predictor stays stale
	if !rsr.finished {
		t.Fatal("empty region must be immediately finished")
	}
}

func TestCacheReconPercentWindow(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	log := make([]trace.MemRecord, 1000)
	for i := range log {
		log[i] = trace.MemRecord{Addr: uint64(i) * 64}
	}
	st := reconstructCaches(h, newest(log, 20))
	if st.ScannedRefs != 200 {
		t.Fatalf("stats = %+v", st)
	}
	// Newest 200 distinct lines must be present in L1D; oldest must not.
	if !h.L1D.Probe(999 * 64) {
		t.Fatal("newest line missing")
	}
	if h.L1D.Probe(0) {
		t.Fatal("oldest line should not have been reconstructed")
	}
}

func TestCacheReconMatchesWarmAt100(t *testing.T) {
	// For a full, load-only log, reconstructed L1 tag state must equal
	// functional (SMARTS) warming for the same reference stream. Stores are
	// excluded here: reconstruction deliberately allocates WTNA writes
	// (paper §3.1) while detailed WTNA simulation does not, and the L2
	// differs by design because reconstruction applies every reference to it
	// directly.
	rng := rand.New(rand.NewSource(11))
	warm := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	recon := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	var log []trace.MemRecord
	for i := 0; i < 20000; i++ {
		r := trace.MemRecord{
			Addr:    uint64(rng.Intn(4096)) * 64,
			IsInstr: rng.Intn(4) == 0,
		}
		if r.IsInstr {
			r.Addr += 0x400000
		}
		log = append(log, r)
		if r.IsInstr {
			warm.WarmInst(r.Addr)
		} else {
			warm.WarmData(r.Addr, false)
		}
	}
	reconstructCaches(recon, log)
	if mem.Fingerprint(warm.L1I) != mem.Fingerprint(recon.L1I) {
		t.Error("L1I reconstruction diverged from functional warming")
	}
	if mem.Fingerprint(warm.L1D) != mem.Fingerprint(recon.L1D) {
		t.Error("L1D reconstruction diverged from functional warming")
	}
}
