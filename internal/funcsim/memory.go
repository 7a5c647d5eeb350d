package funcsim

import "sort"

// Memory is a sparse 64-bit-word-granular memory image. Pages are allocated
// on first touch so workloads can use gigabyte-scale address ranges with only
// their resident set backed by host memory. Accesses are aligned down to an
// 8-byte boundary; the simulated ISA has no sub-word loads/stores.
//
// Pages carry a dirty flag so CaptureDelta can capture deltas: DirtyPages
// copies and clears every page written since the previous call.
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
	dirty bool
}

// PageData is a copied page image used by snapshots.
type PageData struct {
	Key   uint64 // page index (address >> 12)
	Words [pageWords]uint64
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
	e.page.dirty = true
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

// DirtyPages copies every page written since the previous call (or since
// creation) and clears the dirty flags. Pages are returned sorted by page
// key: map iteration order is randomized, and checkpoint captures must be
// deterministic run-to-run.
func (m *Memory) DirtyPages() []PageData {
	var out []PageData
	for key, p := range m.pages {
		if !p.dirty {
			continue
		}
		out = append(out, PageData{Key: key, Words: p.words})
		p.dirty = false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// InstallPages copies page images into memory (overwriting whole pages).
func (m *Memory) InstallPages(pages []PageData) {
	for i := range pages {
		p := m.page(pages[i].Key)
		p.words = pages[i].Words
		p.dirty = true
	}
}
