package bpred

// BTBConfig sizes the branch target buffer.
type BTBConfig struct {
	// Entries is the number of direct-mapped slots; must be a power of two.
	Entries int
}

// DefaultBTBConfig returns the paper's 4K-entry BTB.
func DefaultBTBConfig() BTBConfig { return BTBConfig{Entries: 4 << 10} }

// BTB is a tagged direct-mapped branch target buffer holding the taken
// target of control transfers. The paper reconstructs it like a
// direct-mapped cache, so the entry layout (valid, tag, target) is exposed.
type BTB struct {
	entries []btbEntry
	mask    uint64
	bits    uint // log2(len(entries)); tags are (pc >> 2) >> bits
	updates uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// NewBTB builds the buffer; it panics if Entries is not a power of two.
func NewBTB(cfg BTBConfig) *BTB {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("bpred: BTB entries must be a power of two")
	}
	bits := uint(0)
	for 1<<bits != cfg.Entries {
		bits++
	}
	return &BTB{entries: make([]btbEntry, cfg.Entries), mask: uint64(cfg.Entries - 1), bits: bits}
}

// Index returns the slot used by pc.
func (b *BTB) Index(pc uint64) int { return int((pc >> 2) & b.mask) }

func (b *BTB) tagOf(pc uint64) uint64 { return (pc >> 2) >> b.bits }

// Lookup returns the predicted target for pc and whether the entry hit.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	w := pc >> 2
	e := &b.entries[w&b.mask]
	if e.valid && e.tag == w>>b.bits {
		return e.target, true
	}
	return 0, false
}

// Update installs or refreshes the taken target for pc.
func (b *BTB) Update(pc, target uint64) {
	w := pc >> 2
	e := &b.entries[w&b.mask]
	e.tag = w >> b.bits
	e.target = target
	e.valid = true
	b.updates++
}

// Entries reports the slot count.
func (b *BTB) Entries() int { return len(b.entries) }

// Updates reports state mutations applied.
func (b *BTB) Updates() uint64 { return b.updates }

// ResetUpdates zeroes the work counter.
func (b *BTB) ResetUpdates() { b.updates = 0 }
