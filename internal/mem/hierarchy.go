package mem

import "hash/fnv"

// HierarchyConfig assembles the paper's memory system (§4): 4-way 64 KiB L1I
// and 4-way 32 KiB L1D (both WTNA, 64-byte lines), 8-way 1 MiB WBWA L2, a
// 16-byte 1 GHz bus between the L1s and L2 shared by instruction and data
// traffic, and a 32-byte 2 GHz bus from L2 to main memory. The CPU runs at
// 2 GHz.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	L1Bus        BusConfig
	MemBus       BusConfig
	CPUGHz       float64
	// Access latencies in CPU cycles, excluding bus time.
	L1HitCycles uint64
	L2HitCycles uint64
	MemCycles   uint64
}

// DefaultHierarchyConfig returns the paper's memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{Name: "L1I", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, Policy: WTNA},
		L1D:         CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, Policy: WTNA},
		L2:          CacheConfig{Name: "L2", SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64, Policy: WBWA},
		L1Bus:       BusConfig{Name: "L1-L2", WidthBytes: 16, ClockGHz: 1},
		MemBus:      BusConfig{Name: "L2-mem", WidthBytes: 32, ClockGHz: 2},
		CPUGHz:      2,
		L1HitCycles: 1,
		L2HitCycles: 12,
		MemCycles:   100,
	}
}

// Hierarchy composes the caches and buses and provides two access paths: the
// timed path used during hot simulation (returns completion cycles, consumes
// bus bandwidth) and the functional warm path used by warm-up methods
// (updates tags and LRU only).
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	L1Bus        *Bus
	MemBus       *Bus
	cfg          HierarchyConfig
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:    NewCache(cfg.L1I),
		L1D:    NewCache(cfg.L1D),
		L2:     NewCache(cfg.L2),
		L1Bus:  NewBus(cfg.L1Bus, cfg.CPUGHz),
		MemBus: NewBus(cfg.MemBus, cfg.CPUGHz),
		cfg:    cfg,
	}
}

// Config returns the hierarchy parameters.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// EachCache visits the caches in level order under their fixed exposition
// names ("l1i", "l1d", "l2"). It is the metric-export seam: each visit
// copies a small Stats struct and the access paths carry no extra code, so
// exposing the counters costs nothing until somebody asks.
func (h *Hierarchy) EachCache(f func(level string, s Stats)) {
	f("l1i", h.L1I.Stats())
	f("l1d", h.L1D.Stats())
	f("l2", h.L2.Stats())
}

// accessL2 performs a timed L2 access beginning at now and returns the data
// ready time. L2 misses fetch the line over the memory bus; dirty evictions
// write back off the critical path but occupy the bus.
func (h *Hierarchy) accessL2(now uint64, addr uint64, isWrite bool) uint64 {
	res := h.L2.Access(addr, isWrite)
	t := now + h.cfg.L2HitCycles
	if res.Hit {
		return t
	}
	t = h.MemBus.Transfer(t, h.cfg.L2.LineBytes)
	t += h.cfg.MemCycles
	if res.EvictedDirty {
		h.MemBus.Transfer(t, h.cfg.L2.LineBytes)
	}
	return t
}

// AccessLoad performs a timed data load beginning at cycle now and returns
// the cycle the value is available.
func (h *Hierarchy) AccessLoad(now uint64, addr uint64) uint64 {
	res := h.L1D.Access(addr, false)
	if res.Hit {
		return now + h.cfg.L1HitCycles
	}
	t := h.L1Bus.Transfer(now+h.cfg.L1HitCycles, 8) // miss request
	t = h.accessL2(t, addr, false)
	return h.L1Bus.Transfer(t, h.cfg.L1D.LineBytes) // line fill
}

// AccessStore performs a timed data store beginning at cycle now. The store
// retires into the store buffer after the L1 access; the write-through
// traffic to L2 (and, on an L2 miss, the write-allocate fill from memory)
// proceeds off the critical path but consumes bus bandwidth. The returned
// cycle is when the store leaves the pipeline's critical path.
func (h *Hierarchy) AccessStore(now uint64, addr uint64) uint64 {
	h.L1D.Access(addr, true) // WTNA: updates on hit, no allocation on miss
	t := h.L1Bus.Transfer(now+h.cfg.L1HitCycles, 8)
	h.accessL2(t, addr, true)
	return now + h.cfg.L1HitCycles
}

// AccessInst performs a timed instruction fetch of the line containing addr.
func (h *Hierarchy) AccessInst(now uint64, addr uint64) uint64 {
	res := h.L1I.Access(addr, false)
	if res.Hit {
		return now + h.cfg.L1HitCycles
	}
	t := h.L1Bus.Transfer(now+h.cfg.L1HitCycles, 8)
	t = h.accessL2(t, addr, false)
	return h.L1Bus.Transfer(t, h.cfg.L1I.LineBytes)
}

// WarmData applies one data reference functionally (no timing): exactly the
// state changes detailed simulation would make. Write-through sends every
// store to the L2; loads touch the L2 only on an L1 miss.
func (h *Hierarchy) WarmData(addr uint64, isWrite bool) {
	if isWrite {
		h.L1D.Access(addr, true)
		h.L2.Access(addr, true)
		return
	}
	if res := h.L1D.Access(addr, false); !res.Hit {
		h.L2.Access(addr, false)
	}
}

// WarmInst applies one instruction-fetch reference functionally.
func (h *Hierarchy) WarmInst(addr uint64) {
	if res := h.L1I.Access(addr, false); !res.Hit {
		h.L2.Access(addr, false)
	}
}

// TotalUpdates sums state-mutating operations across all three caches: the
// machine-independent work metric used to compare warm-up costs.
func (h *Hierarchy) TotalUpdates() uint64 {
	return h.L1I.Stats().Updates + h.L1D.Stats().Updates + h.L2.Stats().Updates
}

// Drain clears bus occupancy without touching cache contents or counters;
// called at the start of each timed region because region time restarts at
// cycle zero.
func (h *Hierarchy) Drain() {
	h.L1Bus.Drain()
	h.MemBus.Drain()
}

// ResetStats clears cache and bus counters without touching cache contents.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L1Bus.Reset()
	h.MemBus.Reset()
}

// Fingerprint hashes the tag state and LRU ordering of a cache; two caches
// with equal fingerprints hold the same blocks in the same recency order.
// Dirty bits are excluded: reconstruction cannot recover dirtiness of blocks
// whose stores were skipped, and dirtiness does not affect hit/miss behaviour.
func Fingerprint(c *Cache) uint64 {
	hsh := fnv.New64a()
	var buf [8]byte
	write := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		hsh.Write(buf[:])
	}
	for s := 0; s < c.NumSets(); s++ {
		view := c.SetView(s)
		// Order-independent within a set would lose LRU info; instead emit
		// (rank, tag) pairs sorted by rank.
		for rank := 0; rank < len(view); rank++ {
			for _, lv := range view {
				if lv.Valid && lv.LRURank == rank {
					write(uint64(s))
					write(uint64(rank))
					write(lv.Tag)
				}
			}
		}
	}
	return hsh.Sum64()
}
