package funcsim

import "sort"

// Memory is a sparse 64-bit-word-granular memory image. Pages are allocated
// on first touch so workloads can use gigabyte-scale address ranges with only
// their resident set backed by host memory. Accesses are aligned down to an
// 8-byte boundary; the simulated ISA has no sub-word loads/stores.
//
// Pages carry a dirty flag so CaptureDelta (the sharded pre-pass's
// checkpoints) can capture deltas: DirtyPages copies and clears every page
// written since the previous call.
type Memory struct {
	pages map[uint64]*memPage
	// last-page cache: workloads have strong spatial locality, so one entry
	// removes most map lookups from the hot path.
	lastKey  uint64
	lastPage *memPage
}

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
	return &Memory{pages: make(map[uint64]*memPage)}
}

func (m *Memory) page(addr uint64, create bool) *memPage {
	key := addr >> pageShift
	if m.lastPage != nil && m.lastKey == key {
		return m.lastPage
	}
	p := m.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new(memPage)
		m.pages[key] = p
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// Read returns the 64-bit word at addr (aligned down). Untouched memory
// reads as zero.
func (m *Memory) Read(addr uint64) uint64 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p.words[(addr>>3)&(pageWords-1)]
}

// Write stores a 64-bit word at addr (aligned down).
func (m *Memory) Write(addr, value uint64) {
	p := m.page(addr, true)
	p.words[(addr>>3)&(pageWords-1)] = value
	p.dirty = true
}

// Pages reports how many distinct pages have been touched by writes.
func (m *Memory) Pages() int { return len(m.pages) }

// DirtyPages copies every page written since the previous call (or since
// creation) and clears the dirty flags. Pages are returned sorted by page
// key: map iteration order is randomized, and checkpoint captures must be
// deterministic run-to-run (delta files are content-hashed by the engine).
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
		p := m.page(pages[i].Key<<pageShift, true)
		p.words = pages[i].Words
		p.dirty = true
	}
}
