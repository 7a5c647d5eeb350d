package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"rsr/internal/isa"
	"rsr/internal/trace"
)

func trainedUnit(seed int64) *Unit {
	u := NewUnit(Config{
		Gshare: GshareConfig{Entries: 1024, HistoryBits: 8},
		BTB:    BTBConfig{Entries: 64},
		RAS:    RASConfig{Depth: 8},
	})
	rng := rand.New(rand.NewSource(seed))
	classes := []isa.Class{isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn}
	for i := 0; i < 3000; i++ {
		r := trace.BranchRecord{
			PC:     uint64(0x400000 + rng.Intn(500)*4),
			NextPC: uint64(0x400000 + rng.Intn(500)*4),
			Taken:  rng.Intn(2) == 0,
			Class:  classes[rng.Intn(len(classes))],
		}
		if r.Class != isa.ClassBranch {
			r.Taken = true
		}
		u.Update(r)
	}
	return u
}

// TestUnitStateIsACopy holds every part of a snapshot — direction counters
// and history, BTB, RAS — apart from the live unit's storage.
func TestUnitStateIsACopy(t *testing.T) {
	u := trainedUnit(2)
	st, want := u.State(), trainedUnit(2).State()
	for i := 0; i < 500; i++ {
		u.Update(trace.BranchRecord{PC: uint64(0x600000 + i*4), NextPC: 0x600000, Taken: true, Class: isa.ClassBranch})
		u.Update(trace.BranchRecord{PC: uint64(0x700000 + i*4), NextPC: 0x700000, Taken: true, Class: isa.ClassCall})
	}
	now := u.State()
	for _, part := range []struct {
		name           string
		now, got, want any
	}{
		{"gshare", now.Dir, st.Dir, want.Dir},
		{"BTB", now.BTB, st.BTB, want.BTB},
		{"RAS", now.RAS, st.RAS, want.RAS},
	} {
		if reflect.DeepEqual(part.now, part.want) {
			t.Fatalf("%s: mutation did not change state", part.name)
		}
		if !reflect.DeepEqual(part.got, part.want) {
			t.Fatalf("%s: captured state aliased live storage", part.name)
		}
	}
}
