package mem

import "testing"

func TestBusTransferTiming(t *testing.T) {
	// 16-byte bus at 1 GHz with a 2 GHz CPU: one beat = 2 CPU cycles.
	b := NewBus(BusConfig{Name: "t", WidthBytes: 16, ClockGHz: 1}, 2)
	done := b.Transfer(0, 64) // 4 beats = 8 cycles
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
	// Second transfer queued behind the first.
	done = b.Transfer(4, 16) // starts at 8, 1 beat = 2 cycles
	if done != 10 {
		t.Fatalf("done = %d, want 10", done)
	}
	st := b.Stats()
	if st.Transfers != 2 || st.WaitCycles != 4 || st.BusyCycles != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBusIdleGap(t *testing.T) {
	b := NewBus(BusConfig{Name: "t", WidthBytes: 32, ClockGHz: 2}, 2)
	b.Transfer(0, 32)           // done at 1
	done := b.Transfer(100, 32) // idle gap; starts at 100
	if done != 101 {
		t.Fatalf("done = %d, want 101", done)
	}
	if b.Stats().WaitCycles != 0 {
		t.Fatal("no wait expected across idle gap")
	}
}

func TestBusZeroByteTransfer(t *testing.T) {
	b := NewBus(BusConfig{Name: "t", WidthBytes: 16, ClockGHz: 1}, 2)
	if done := b.Transfer(0, 0); done == 0 {
		t.Fatal("zero-byte transfer should still occupy one beat")
	}
}

// TestBusBeatsRoundUp pins Transfer's beat count, which it reaches by
// subtraction, to the rounding-up division it stands for, on widths that are
// and are not powers of two.
func TestBusBeatsRoundUp(t *testing.T) {
	for _, width := range []int{1, 3, 16, 24, 32} {
		for bytes := 0; bytes <= 200; bytes++ {
			b := NewBus(BusConfig{Name: "t", WidthBytes: width, ClockGHz: 1}, 2)
			want := uint64((bytes + width - 1) / width)
			if want == 0 {
				want = 1
			}
			if done := b.Transfer(0, bytes); done != 2*want {
				t.Fatalf("width %d: %d bytes done at %d, want %d beats of 2 cycles", width, bytes, done, want)
			}
		}
	}
}

func TestBusPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a bus that cannot move a byte must be refused at construction")
		}
	}()
	NewBus(BusConfig{Name: "t", ClockGHz: 1}, 2)
}

func TestDefaultHierarchyConfigMatchesPaper(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1I.SizeBytes != 64<<10 || cfg.L1I.Assoc != 4 || cfg.L1I.LineBytes != 64 || cfg.L1I.Policy != WTNA {
		t.Error("L1I config wrong")
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Assoc != 4 || cfg.L1D.Policy != WTNA {
		t.Error("L1D config wrong")
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.Assoc != 8 || cfg.L2.Policy != WBWA {
		t.Error("L2 config wrong")
	}
	if cfg.L1Bus.WidthBytes != 16 || cfg.L1Bus.ClockGHz != 1 {
		t.Error("L1 bus config wrong")
	}
	if cfg.MemBus.WidthBytes != 32 || cfg.MemBus.ClockGHz != 2 {
		t.Error("memory bus config wrong")
	}
	if cfg.CPUGHz != 2 {
		t.Error("CPU clock wrong")
	}
}

func TestHierarchyLoadLatencyOrdering(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	coldMiss := h.AccessLoad(0, 0x1000) // misses L1 and L2: goes to memory
	if coldMiss <= h.Config().L2HitCycles {
		t.Fatalf("cold miss latency %d implausibly low", coldMiss)
	}
	h2 := NewHierarchy(DefaultHierarchyConfig())
	h2.AccessLoad(0, 0x1000)
	hit := h2.AccessLoad(1000, 0x1000) - 1000
	if hit != h2.Config().L1HitCycles {
		t.Fatalf("L1 hit latency = %d, want %d", hit, h2.Config().L1HitCycles)
	}
	if hit >= coldMiss {
		t.Fatal("hit must be faster than miss")
	}
}

func TestHierarchyL2HitFasterThanMemory(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.AccessLoad(0, 0x40000) // install in L1 and L2
	// Evict from L1 only by filling its set (L1D: 32KB/4way/64B = 128 sets,
	// stride = 128*64 = 8192).
	for i := uint64(1); i <= 4; i++ {
		h.AccessLoad(0, 0x40000+i*8192)
	}
	if h.L1D.Probe(0x40000) {
		t.Fatal("setup failed: line still in L1D")
	}
	if !h.L2.Probe(0x40000) {
		t.Fatal("setup failed: line not in L2")
	}
	now := uint64(100000)
	l2hit := h.AccessLoad(now, 0x40000) - now
	cfg := h.Config()
	if l2hit <= cfg.L1HitCycles || l2hit >= cfg.MemCycles {
		t.Fatalf("L2 hit latency = %d, want between L1 hit and memory", l2hit)
	}
}

func TestStoreRetiresQuicklyButUsesBus(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	done := h.AccessStore(0, 0x2000)
	if done != h.Config().L1HitCycles {
		t.Fatalf("store critical-path latency = %d", done)
	}
	if h.L1Bus.Stats().Transfers == 0 {
		t.Fatal("write-through must use the L1 bus")
	}
	// The write-allocate fill in L2 must have happened.
	if !h.L2.Probe(0x2000) {
		t.Fatal("store must allocate in WBWA L2")
	}
	// WTNA L1D must not have allocated.
	if h.L1D.Probe(0x2000) {
		t.Fatal("store miss must not allocate in WTNA L1D")
	}
}

func TestSharedL1BusContention(t *testing.T) {
	// An instruction miss and a data miss back-to-back share the L1 bus;
	// the second must be delayed relative to an uncontended run.
	h1 := NewHierarchy(DefaultHierarchyConfig())
	h1.AccessInst(0, 0x100000)
	dataAlone := NewHierarchy(DefaultHierarchyConfig()).AccessLoad(0, 0x200000)
	dataContended := h1.AccessLoad(0, 0x200000)
	if dataContended <= dataAlone {
		t.Fatalf("contended load (%d) should exceed uncontended (%d)", dataContended, dataAlone)
	}
}

func TestWarmPathsMatchDetailedTagState(t *testing.T) {
	// Functional warming must leave the caches with the same tags/LRU as the
	// timed path for the same reference stream.
	timed := NewHierarchy(DefaultHierarchyConfig())
	warm := NewHierarchy(DefaultHierarchyConfig())
	refs := []struct {
		addr    uint64
		isInstr bool
		write   bool
	}{
		{0x400000, true, false}, {0x10000, false, false}, {0x10040, false, true},
		{0x400040, true, false}, {0x20000, false, true}, {0x10000, false, false},
		{0x400000, true, false}, {0x90000, false, false},
	}
	now := uint64(0)
	for _, r := range refs {
		switch {
		case r.isInstr:
			now = timed.AccessInst(now, r.addr)
			warm.WarmInst(r.addr)
		case r.write:
			now = timed.AccessStore(now, r.addr)
			warm.WarmData(r.addr, true)
		default:
			now = timed.AccessLoad(now, r.addr)
			warm.WarmData(r.addr, false)
		}
	}
	if Fingerprint(timed.L1I) != Fingerprint(warm.L1I) {
		t.Error("L1I state diverged between warm and timed paths")
	}
	if Fingerprint(timed.L1D) != Fingerprint(warm.L1D) {
		t.Error("L1D state diverged between warm and timed paths")
	}
	if Fingerprint(timed.L2) != Fingerprint(warm.L2) {
		t.Error("L2 state diverged between warm and timed paths")
	}
}

func TestTotalUpdatesAccumulates(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if h.TotalUpdates() != 0 {
		t.Fatal("fresh hierarchy should have zero updates")
	}
	h.WarmData(0x1000, false)
	h.WarmInst(0x400000)
	if h.TotalUpdates() == 0 {
		t.Fatal("updates not counted")
	}
	h.ResetStats()
	if h.TotalUpdates() != 0 {
		t.Fatal("reset did not clear stats")
	}
}
