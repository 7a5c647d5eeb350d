package funcsim

// Memory is a sparse 64-bit-word-granular memory image. Pages are allocated
// on first touch so workloads can use gigabyte-scale address ranges with only
// their resident set backed by host memory. Accesses are aligned down to an
// 8-byte boundary; the simulated ISA has no sub-word loads/stores. A page is
// its 4 KiB of words and nothing else, so Write is one store per guest store
// and each page fills its allocation size class exactly.
type Memory struct {
	pages map[uint64]*memPage
	// cache is a direct-mapped cache of page pointers in front of the map,
	// indexed by the low bits of the page key: Read and Write find a page
	// with one compare and look in the map only on a conflict or a first
	// touch. Pages never leave the map, so an entry never goes stale.
	cache [cacheSlots]cachedPage
}

// cachedPage is one slot of Memory.cache. An empty slot holds noPage, which
// no address shifts down to, so the key compare alone decides a hit.
type cachedPage struct {
	key  uint64
	page *memPage
}

// cacheSlots is sized by measurement: over 4M instructions of each workload,
// the share of loads and stores that miss 64 / 128 / 256 slots is 35.6 /
// 23.8 / 0.4% on vortex (257 pages), 1.2% throughout on gcc, and 0% from 16
// slots on twolf and parser; mcf (1,024 pages) misses 26% at 256, ammp's
// 768-page sweep misses at any size; one slot misses 70-80% on vortex, gcc
// and twolf. 256 slots are 4 KiB per simulator.
const (
	cacheSlots = 256
	noPage     = ^uint64(0)
)

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
)

type memPage struct {
	words [pageWords]uint64
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint64]*memPage)}
	for i := range m.cache {
		m.cache[i].key = noPage
	}
	return m
}

// Read returns the 64-bit word at addr (aligned down). Untouched memory
// reads as zero, and creates no page.
//
// Read and Write are inlined into both interpreters, miss path included: a
// call to an out-of-line miss function costs 57 of the inliner's budget of 80,
// which puts either accessor over it (stall-check fails on a CALL to them).
func (m *Memory) Read(addr uint64) uint64 {
	key := addr >> pageShift
	e := &m.cache[key%cacheSlots]
	if e.key != key {
		p := m.pages[key]
		if p == nil {
			return 0
		}
		*e = cachedPage{key: key, page: p}
	}
	return e.page.words[addr>>3%pageWords]
}

// Write stores a 64-bit word at addr (aligned down).
func (m *Memory) Write(addr, value uint64) {
	key := addr >> pageShift
	e := &m.cache[key%cacheSlots]
	if e.key != key {
		*e = cachedPage{key: key, page: m.page(key)}
	}
	e.page.words[addr>>3%pageWords] = value
}

// page returns the page with the given key, creating it on first touch.
func (m *Memory) page(key uint64) *memPage {
	p := m.pages[key]
	if p == nil {
		p = new(memPage)
		m.pages[key] = p
	}
	return p
}

// Pages reports how many distinct pages have been touched by writes.
func (m *Memory) Pages() int { return len(m.pages) }
