package bpred

// RASConfig sizes the return address stack.
type RASConfig struct {
	Depth int
}

// DefaultRASConfig returns the paper's eight-entry RAS.
func DefaultRASConfig() RASConfig { return RASConfig{Depth: 8} }

// RAS is a finite circular return address stack. Pushing onto a full stack
// overwrites the oldest entry, as in hardware; popping an empty stack
// returns no prediction.
type RAS struct {
	slots   []uint64
	valid   []bool
	top     int // index of the next push slot
	size    int // live entries
	updates uint64
}

// NewRAS builds the stack; it panics on non-positive depth.
func NewRAS(cfg RASConfig) *RAS {
	if cfg.Depth <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{slots: make([]uint64, cfg.Depth), valid: make([]bool, cfg.Depth)}
}

// Depth reports the stack capacity.
func (r *RAS) Depth() int { return len(r.slots) }

// Size reports the live entry count.
func (r *RAS) Size() int { return r.size }

// below returns the slot index k entries under the next push slot, for k in
// [0, Depth]: one compare and add where `% len(r.slots)` is a hardware divide.
func (r *RAS) below(k int) int {
	i := r.top - k
	if i < 0 {
		i += len(r.slots)
	}
	return i
}

// Push records a return address.
func (r *RAS) Push(addr uint64) {
	r.slots[r.top] = addr
	r.valid[r.top] = true
	if r.top++; r.top == len(r.slots) {
		r.top = 0
	}
	if r.size < len(r.slots) {
		r.size++
	}
	r.updates++
}

// Pop removes and returns the youngest return address.
func (r *RAS) Pop() (uint64, bool) {
	if r.size == 0 {
		return 0, false
	}
	r.top = r.below(1)
	addr := r.slots[r.top]
	r.valid[r.top] = false
	r.size--
	r.updates++
	return addr, true
}

// Peek returns the youngest return address without removing it.
func (r *RAS) Peek() (uint64, bool) {
	if r.size == 0 {
		return 0, false
	}
	return r.slots[r.below(1)], true
}

// FillBottom installs addr below every live entry: the reverse-reconstruction
// placement rule ("the next PC is placed at the end of the RAS"). It reports
// false when the stack is already full.
func (r *RAS) FillBottom(addr uint64) bool {
	if r.size >= len(r.slots) {
		return false
	}
	bottom := r.below(r.size + 1)
	r.slots[bottom] = addr
	r.valid[bottom] = true
	r.size++
	r.updates++
	return true
}

// Clear empties the stack.
func (r *RAS) Clear() {
	for i := range r.valid {
		r.valid[i] = false
	}
	r.top = 0
	r.size = 0
}

// Contents returns the live entries youngest-first (for tests and
// reconstruction equivalence checks).
func (r *RAS) Contents() []uint64 {
	out := make([]uint64, 0, r.size)
	for k := 1; k <= r.size; k++ {
		out = append(out, r.slots[r.below(k)])
	}
	return out
}

// Updates reports state mutations applied.
func (r *RAS) Updates() uint64 { return r.updates }

// ResetUpdates zeroes the work counter.
func (r *RAS) ResetUpdates() { r.updates = 0 }
