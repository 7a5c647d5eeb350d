package funcsim

import (
	"testing"
	"unsafe"

	"rsr/internal/prog"
)

// collide returns n addresses on distinct pages that share one page-cache
// slot, each at a different word of its page.
func collide(n int) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = prog.DataBase + uint64(i)*cacheSlots<<pageShift + uint64(8*i)
	}
	return addrs
}

// TestPageCacheCollisions: pages whose keys share a slot evict each other
// from the cache, and every read and write still reaches its own page, as a
// plain map of words says it should.
func TestPageCacheCollisions(t *testing.T) {
	addrs := collide(3)
	if k0, k1 := addrs[0]>>pageShift, addrs[1]>>pageShift; k0 == k1 || k0%cacheSlots != k1%cacheSlots {
		t.Fatalf("test addresses do not collide: keys %#x and %#x", k0, k1)
	}
	m := NewMemory()
	want := map[uint64]uint64{}
	lcg := uint64(1)
	for i := 0; i < 2000; i++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		a := addrs[lcg>>33%uint64(len(addrs))] + 8*(lcg>>40%4)
		if lcg>>50%2 == 0 {
			m.Write(a, lcg)
			want[a] = lcg
		} else if got := m.Read(a); got != want[a] {
			t.Fatalf("access %d: Read(%#x) = %#x, want %#x", i, a, got, want[a])
		}
	}
	if m.Pages() != len(addrs) {
		t.Fatalf("Pages() = %d, want %d", m.Pages(), len(addrs))
	}
}

// TestPageCacheUntouchedRead: reading a page nothing has written returns 0
// and creates no page, also when the read misses on a slot another page holds,
// and that page stays readable through the slot. The two addresses are the
// same word of their pages, so a slot read without its key would return 7.
func TestPageCacheUntouchedRead(t *testing.T) {
	addrs := []uint64{prog.DataBase, prog.DataBase + cacheSlots<<pageShift}
	m := NewMemory()
	m.Write(addrs[0], 7)
	for i := 0; i < 3; i++ {
		if v := m.Read(addrs[1]); v != 0 {
			t.Fatalf("untouched page read %#x", v)
		}
		if v := m.Read(addrs[0]); v != 7 {
			t.Fatalf("written page read %#x after a miss on its slot, want 7", v)
		}
	}
	if m.Pages() != 1 {
		t.Fatalf("Pages() = %d after reading an untouched page, want 1", m.Pages())
	}
	if v := NewMemory().Read(addrs[1]); v != 0 {
		t.Fatalf("empty memory read %#x", v)
	}
}

// TestPageCacheDeltaRoundTrip: writes to colliding pages that evict each
// other from the cache — on a hit and on a miss, over a memory whose slots
// already hold some of those pages — read back as a plain map of words says
// they should, and leave one page per distinct page written.
func TestPageCacheDeltaRoundTrip(t *testing.T) {
	addrs := collide(3)
	m := NewMemory()
	want := map[uint64]uint64{}
	write := func(a, v uint64) {
		m.Write(a, v)
		want[a] = v
	}
	write(addrs[1], 99) // cached before the rest land
	_ = m.Read(addrs[2])
	write(addrs[0], 1) // a miss: evicts addrs[1]'s page
	write(addrs[1], 2) // a miss on a page the map already holds
	write(addrs[1], 3) // a hit
	write(addrs[2], 4)
	write(addrs[0], 5) // a miss on a page written before
	for i, a := range addrs {
		if got := m.Read(a); got != want[a] {
			t.Errorf("page %d: read %d, want %d", i, got, want[a])
		}
	}
	if m.Pages() != len(addrs) {
		t.Fatalf("memory holds %d pages, want %d", m.Pages(), len(addrs))
	}
}

// TestPageIsItsWords: a guest page is exactly 4 KiB, so each fills its
// allocation size class; one more field pushes it into the 4,864-byte class.
func TestPageIsItsWords(t *testing.T) {
	if got := unsafe.Sizeof(memPage{}); got != 1<<pageShift {
		t.Fatalf("a page is %d bytes, want %d", got, 1<<pageShift)
	}
}
