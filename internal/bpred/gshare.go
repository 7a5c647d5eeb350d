// Package bpred implements the paper's branch prediction hardware: a
// 64K-entry Gshare direction predictor with 2-bit saturating counters, a
// 4K-entry branch target buffer, and an eight-entry return address stack.
// The reverse-reconstruction logic that repairs this state between sampled
// clusters lives in internal/core; this package exposes the raw state
// (counters, GHR, BTB entries, RAS slots) it needs.
package bpred

// Counter states of a 2-bit saturating counter.
const (
	StronglyNotTaken = 0
	WeaklyNotTaken   = 1
	WeaklyTaken      = 2
	StronglyTaken    = 3
)

// CounterStep advances a 2-bit saturating counter by one outcome.
func CounterStep(state uint8, taken bool) uint8 {
	if taken {
		if state < StronglyTaken {
			return state + 1
		}
		return StronglyTaken
	}
	if state > StronglyNotTaken {
		return state - 1
	}
	return StronglyNotTaken
}

// GshareConfig sizes the direction predictor.
type GshareConfig struct {
	// Entries is the number of 2-bit counters; must be a power of two.
	Entries int
	// HistoryBits is the width of the global history register.
	HistoryBits int
}

// DefaultGshareConfig returns the paper's 64K-entry Gshare with a history as
// wide as the index.
func DefaultGshareConfig() GshareConfig {
	return GshareConfig{Entries: 64 << 10, HistoryBits: 16}
}

// Gshare is the direction predictor. Counters are indexed by PC XOR global
// history. The GHR is updated at retirement (when Update is called), the
// same discipline the functional warm-up paths use, so warmed and detailed
// state evolve identically.
type Gshare struct {
	counters []uint8
	mask     uint64
	ghr      uint64
	ghrMask  uint64
	histBits int
	updates  uint64
}

// NewGshare builds the predictor; it panics if Entries is not a power of two
// (configurations are static).
func NewGshare(cfg GshareConfig) *Gshare {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("bpred: gshare entries must be a power of two")
	}
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 63 {
		panic("bpred: gshare history bits out of range")
	}
	counters := make([]uint8, cfg.Entries)
	// Weakly-not-taken initial state, the usual hardware reset value.
	for i := range counters {
		counters[i] = WeaklyNotTaken
	}
	return &Gshare{
		counters: counters,
		mask:     uint64(cfg.Entries - 1),
		ghrMask:  (1 << uint(cfg.HistoryBits)) - 1,
		histBits: cfg.HistoryBits,
	}
}

// IndexFor computes the counter index used for pc under history ghr.
func (g *Gshare) IndexFor(pc, ghr uint64) int {
	return int(((pc >> 2) ^ ghr) & g.mask)
}

// Index computes the counter index for pc under the current history.
func (g *Gshare) Index(pc uint64) int { return g.IndexFor(pc, g.ghr) }

// Predict returns the predicted direction for the conditional branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.counters[g.Index(pc)] >= WeaklyTaken
}

// Update applies a retired conditional branch: counter trained under the
// pre-update history, then the outcome shifts into the GHR.
func (g *Gshare) Update(pc uint64, taken bool) {
	idx := g.Index(pc)
	g.counters[idx] = CounterStep(g.counters[idx], taken)
	g.PushHistory(taken)
	g.updates++
}

// PushHistory shifts one outcome into the GHR without training a counter
// (used by reconstruction when only the history is being repaired).
func (g *Gshare) PushHistory(taken bool) {
	g.ghr = (g.ghr << 1) & g.ghrMask
	if taken {
		g.ghr |= 1
	}
}

// GHR returns the current global history register.
func (g *Gshare) GHR() uint64 { return g.ghr }

// SetGHR overwrites the global history register (reconstruction).
func (g *Gshare) SetGHR(v uint64) { g.ghr = v & g.ghrMask }

// HistoryBits reports the GHR width.
func (g *Gshare) HistoryBits() int { return g.histBits }

// Entries reports the number of counters.
func (g *Gshare) Entries() int { return len(g.counters) }

// Counter returns counter idx.
func (g *Gshare) Counter(idx int) uint8 { return g.counters[idx] }

// SetCounter overwrites counter idx (reconstruction).
func (g *Gshare) SetCounter(idx int, v uint8) {
	g.counters[idx] = v & 3
	g.updates++
}

// Updates reports how many state mutations have been applied: the work
// metric for warm-up cost comparisons.
func (g *Gshare) Updates() uint64 { return g.updates }

// ResetUpdates zeroes the work counter.
func (g *Gshare) ResetUpdates() { g.updates = 0 }
