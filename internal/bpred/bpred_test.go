package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rsr/internal/isa"
	"rsr/internal/trace"
)

func TestCounterStepSaturates(t *testing.T) {
	if CounterStep(StronglyTaken, true) != StronglyTaken {
		t.Error("taken must saturate at 3")
	}
	if CounterStep(StronglyNotTaken, false) != StronglyNotTaken {
		t.Error("not-taken must saturate at 0")
	}
	if CounterStep(WeaklyNotTaken, true) != WeaklyTaken {
		t.Error("1 + taken should be 2")
	}
	if CounterStep(WeaklyTaken, false) != WeaklyNotTaken {
		t.Error("2 + not-taken should be 1")
	}
}

func TestCounterStepProperty(t *testing.T) {
	f := func(s uint8, taken bool) bool {
		out := CounterStep(s&3, taken)
		return out <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(GshareConfig{Entries: 1024, HistoryBits: 8})
	pc := uint64(0x400100)
	for i := 0; i < 50; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Fatal("should predict taken after taken training")
	}
	for i := 0; i < 50; i++ {
		g.Update(pc, false)
	}
	if g.Predict(pc) {
		t.Fatal("should predict not-taken after not-taken training")
	}
}

func TestGshareHistoryAffectsIndex(t *testing.T) {
	g := NewGshare(GshareConfig{Entries: 1024, HistoryBits: 8})
	pc := uint64(0x400100)
	i1 := g.Index(pc)
	g.PushHistory(true)
	i2 := g.Index(pc)
	if i1 == i2 {
		t.Fatal("history change must move the index")
	}
}

func TestGshareGHRMasked(t *testing.T) {
	g := NewGshare(GshareConfig{Entries: 64, HistoryBits: 4})
	for i := 0; i < 100; i++ {
		g.PushHistory(true)
	}
	if g.GHR() != 0xF {
		t.Fatalf("ghr = %#x, want 0xF", g.GHR())
	}
	g.SetGHR(0xFFFF)
	if g.GHR() != 0xF {
		t.Fatal("SetGHR must mask")
	}
}

func TestGshareAlternatingWithHistory(t *testing.T) {
	// With enough history bits an alternating branch is perfectly
	// predictable after warm-up; verify the predictor exploits history.
	g := NewGshare(GshareConfig{Entries: 4096, HistoryBits: 8})
	pc := uint64(0x400200)
	taken := false
	// Train.
	for i := 0; i < 2000; i++ {
		g.Update(pc, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 200; i++ {
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
		taken = !taken
	}
	if correct < 190 {
		t.Fatalf("alternating accuracy %d/200, want near-perfect", correct)
	}
}

func TestBTBBasic(t *testing.T) {
	b := NewBTB(BTBConfig{Entries: 16})
	if _, ok := b.Lookup(0x400000); ok {
		t.Fatal("cold BTB should miss")
	}
	b.Update(0x400000, 0x400100)
	if tgt, ok := b.Lookup(0x400000); !ok || tgt != 0x400100 {
		t.Fatalf("lookup = %#x, %v", tgt, ok)
	}
}

func TestBTBTagConflict(t *testing.T) {
	b := NewBTB(BTBConfig{Entries: 16})
	pcA := uint64(0x400000)
	pcB := pcA + 16*4 // same slot, different tag
	if b.Index(pcA) != b.Index(pcB) {
		t.Fatal("test setup: PCs should collide")
	}
	b.Update(pcA, 0x1111)
	b.Update(pcB, 0x2222)
	if _, ok := b.Lookup(pcA); ok {
		t.Fatal("displaced entry should miss on tag")
	}
	if tgt, _ := b.Lookup(pcB); tgt != 0x2222 {
		t.Fatal("resident entry wrong")
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(RASConfig{Depth: 4})
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if a, _ := r.Peek(); a != 3 {
		t.Fatalf("peek = %d", a)
	}
	if a, ok := r.Pop(); !ok || a != 3 {
		t.Fatal("pop order wrong")
	}
	if a, ok := r.Pop(); !ok || a != 2 {
		t.Fatal("pop order wrong")
	}
	if a, ok := r.Pop(); !ok || a != 1 {
		t.Fatal("pop order wrong")
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty pop should fail")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(RASConfig{Depth: 2})
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Size() != 2 {
		t.Fatalf("size = %d", r.Size())
	}
	if a, _ := r.Pop(); a != 3 {
		t.Fatal("pop should return newest")
	}
	if a, _ := r.Pop(); a != 2 {
		t.Fatal("second pop wrong")
	}
}

func TestRASFillBottom(t *testing.T) {
	r := NewRAS(RASConfig{Depth: 3})
	r.Push(10) // youngest after fills
	if !r.FillBottom(20) {
		t.Fatal("fill should succeed")
	}
	if !r.FillBottom(30) {
		t.Fatal("fill should succeed")
	}
	if r.FillBottom(40) {
		t.Fatal("fill on full stack should fail")
	}
	want := []uint64{10, 20, 30} // youngest-first
	got := r.Contents()
	if len(got) != 3 {
		t.Fatalf("contents = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
	// Pop order must be 10, 20, 30.
	for _, w := range want {
		if a, _ := r.Pop(); a != w {
			t.Fatalf("pop = %d, want %d", a, w)
		}
	}
}

// TestRASMatchesSliceModel drives the circular stack and an obviously-right
// slice (youngest first, oldest dropped on overflow) through the same random
// operations, at depths that are and are not powers of two: the slot
// arithmetic wraps by compare-and-add and must land where a modulus would.
func TestRASMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, depth := range []int{1, 2, 3, 5, 8, 13} {
		r := NewRAS(RASConfig{Depth: depth})
		var model []uint64
		for step := 0; step < 5000; step++ {
			addr := rng.Uint64()
			switch rng.Intn(4) {
			case 0, 1:
				r.Push(addr)
				model = append([]uint64{addr}, model...)
				if len(model) > depth {
					model = model[:depth]
				}
			case 2:
				got, ok := r.Pop()
				if ok != (len(model) > 0) || ok && got != model[0] {
					t.Fatalf("depth %d step %d: pop = %#x, %v; model %#x", depth, step, got, ok, model)
				}
				if ok {
					model = model[1:]
				}
			case 3:
				if ok := r.FillBottom(addr); ok != (len(model) < depth) {
					t.Fatalf("depth %d step %d: fill = %v with %d live", depth, step, ok, len(model))
				} else if ok {
					model = append(model, addr)
				}
			}
			got := r.Contents()
			if len(got) != len(model) || r.Size() != len(model) {
				t.Fatalf("depth %d step %d: contents %#x, model %#x", depth, step, got, model)
			}
			for i := range model {
				if got[i] != model[i] {
					t.Fatalf("depth %d step %d: contents %#x, model %#x", depth, step, got, model)
				}
			}
			if top, ok := r.Peek(); ok != (len(model) > 0) || ok && top != model[0] {
				t.Fatalf("depth %d step %d: peek = %#x, %v", depth, step, top, ok)
			}
		}
	}
}

func TestUnitConditionalFlow(t *testing.T) {
	u := NewUnit(Config{
		Gshare: GshareConfig{Entries: 1024, HistoryBits: 8},
		BTB:    BTBConfig{Entries: 64},
		RAS:    RASConfig{Depth: 4},
	})
	pc, tgt := uint64(0x400100), uint64(0x400400)
	for i := 0; i < 10; i++ {
		u.Update(trace.BranchRecord{PC: pc, NextPC: tgt, Taken: true, Class: isa.ClassBranch})
	}
	p := u.Predict(pc, isa.ClassBranch)
	if !p.Taken || !p.TargetKnown || p.Target != tgt {
		t.Fatalf("prediction = %+v", p)
	}
}

func TestUnitCallReturnFlow(t *testing.T) {
	u := NewUnit(Config{
		Gshare: GshareConfig{Entries: 64, HistoryBits: 4},
		BTB:    BTBConfig{Entries: 16},
		RAS:    RASConfig{Depth: 4},
	})
	callPC := uint64(0x400100)
	u.Update(trace.BranchRecord{PC: callPC, NextPC: 0x400800, Taken: true, Class: isa.ClassCall})
	p := u.Predict(0x400804, isa.ClassReturn)
	if !p.Taken || !p.TargetKnown || p.Target != callPC+isa.InstBytes {
		t.Fatalf("return prediction = %+v", p)
	}
	u.Update(trace.BranchRecord{PC: 0x400804, NextPC: callPC + 4, Taken: true, Class: isa.ClassReturn})
	if u.RAS.Size() != 0 {
		t.Fatal("return should pop the RAS")
	}
}

func TestUnitNotTakenConditionalSkipsBTB(t *testing.T) {
	u := NewUnit(Config{
		Gshare: GshareConfig{Entries: 64, HistoryBits: 4},
		BTB:    BTBConfig{Entries: 16},
		RAS:    RASConfig{Depth: 4},
	})
	u.Update(trace.BranchRecord{PC: 0x400100, NextPC: 0x400104, Taken: false, Class: isa.ClassBranch})
	if u.BTB.Updates() != 0 {
		t.Fatal("not-taken conditional must not train BTB")
	}
}

func TestUnitDeterministicReplay(t *testing.T) {
	// Applying the same record stream to two fresh units yields identical
	// predictions afterwards: the invariant SMARTS warm-up relies on.
	mk := func() *Unit {
		return NewUnit(Config{
			Gshare: GshareConfig{Entries: 4096, HistoryBits: 10},
			BTB:    BTBConfig{Entries: 256},
			RAS:    RASConfig{Depth: 8},
		})
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(11))
	classes := []isa.Class{isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn}
	var recs []trace.BranchRecord
	for i := 0; i < 5000; i++ {
		r := trace.BranchRecord{
			PC:     uint64(0x400000 + rng.Intn(1000)*4),
			NextPC: uint64(0x400000 + rng.Intn(1000)*4),
			Taken:  rng.Intn(2) == 0,
			Class:  classes[rng.Intn(len(classes))],
		}
		if r.Class != isa.ClassBranch {
			r.Taken = true
		}
		recs = append(recs, r)
	}
	for _, r := range recs {
		a.Update(r)
		b.Update(r)
	}
	for i := 0; i < 1000; i++ {
		pc := uint64(0x400000 + rng.Intn(1000)*4)
		cl := classes[rng.Intn(len(classes))]
		if a.Predict(pc, cl) != b.Predict(pc, cl) {
			t.Fatal("replay divergence")
		}
	}
	if a.Updates() != b.Updates() {
		t.Fatal("update counts diverged")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewGshare(GshareConfig{Entries: 3, HistoryBits: 4}) },
		func() { NewGshare(GshareConfig{Entries: 4, HistoryBits: 0}) },
		func() { NewBTB(BTBConfig{Entries: 0}) },
		func() { NewRAS(RASConfig{Depth: 0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
