package mem

// Cache snapshots. Nothing restores one: they exist so tests can compare the
// state two ingestion paths left behind (internal/warmup's batch and fuzz
// equivalence tests compare hierarchies through them).

// CacheState is an opaque copy of a cache's tags, LRU order, and dirty bits.
type CacheState struct {
	lines   []line
	counter uint64
}

// State copies the cache's content. Reconstructed marks are normalized to an
// epoch-independent form (reconAt 1 = marked in the most recent pass, 0 =
// stale), so two snapshots compare equal whatever pass number each cache has
// reached.
func (c *Cache) State() CacheState {
	s := CacheState{lines: make([]line, len(c.lines)), counter: c.counter}
	copy(s.lines, c.lines)
	for i := range s.lines {
		if s.lines[i].reconAt == c.reconEpoch && s.lines[i].reconAt != 0 {
			s.lines[i].reconAt = 1
		} else {
			s.lines[i].reconAt = 0
		}
	}
	return s
}

// HierarchyState is a snapshot of all three caches. Bus occupancy is not
// part of the state: regions start with drained buses.
type HierarchyState struct {
	L1I, L1D, L2 CacheState
}

// State copies the hierarchy's cache contents.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{L1I: h.L1I.State(), L1D: h.L1D.State(), L2: h.L2.State()}
}
