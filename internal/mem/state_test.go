package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

func populatedCache(seed int64) *Cache {
	c := NewCache(CacheConfig{Name: "s", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Policy: WBWA})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		c.Access(uint64(rng.Intn(64))*64, rng.Intn(3) == 0)
	}
	return c
}

func TestCacheStateIsACopy(t *testing.T) {
	c := populatedCache(2)
	st, want := c.State(), populatedCache(2).State()
	// Mutating the cache must not reach into a snapshot already taken.
	for i := 0; i < 100; i++ {
		c.Access(uint64(1000+i)*64, false)
	}
	if reflect.DeepEqual(c.State(), want) {
		t.Fatal("mutation did not change state")
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatal("captured state aliased live storage")
	}
}

// TestCacheStateNormalisesReconEpochs pins State's epoch-independent form: a
// line marked in the cache's current reconstruction pass reads 1, a line
// marked in an earlier pass reads 0, whatever pass numbers the cache has
// reached.
func TestCacheStateNormalisesReconEpochs(t *testing.T) {
	c := populatedCache(3)
	const older, newer = 0x40, 0x80 // distinct sets
	c.BeginReconstruction()
	c.ReconstructRef(older, false)
	c.BeginReconstruction()
	c.ReconstructRef(newer, false)

	mark := func(st CacheState, addr uint64) uint64 {
		set := c.SetOf(addr) * c.assoc
		for _, l := range st.lines[set : set+c.assoc] {
			if l.valid && l.tag == c.tagOf(addr) {
				return l.reconAt
			}
		}
		t.Fatalf("%#x not resident", addr)
		return 0
	}
	st := c.State()
	if got := mark(st, newer); got != 1 {
		t.Errorf("line marked in the current pass reads %d, want 1", got)
	}
	if got := mark(st, older); got != 0 {
		t.Errorf("line marked in an earlier pass reads %d, want 0", got)
	}
	c.BeginReconstruction()
	if got := mark(c.State(), newer); got != 0 {
		t.Errorf("after a new pass the last pass's mark reads %d, want 0", got)
	}
}
