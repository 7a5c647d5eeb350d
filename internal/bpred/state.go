package bpred

// Predictor snapshots. Nothing restores one: they exist so tests can compare
// the state two ingestion paths left behind (internal/warmup's batch and fuzz
// equivalence tests compare units through them).

// GshareState is an opaque copy of the direction predictor.
type GshareState struct {
	counters []uint8
	ghr      uint64
}

// State copies the predictor's counters and history.
func (g *Gshare) State() GshareState {
	s := GshareState{counters: make([]uint8, len(g.counters)), ghr: g.ghr}
	copy(s.counters, g.counters)
	return s
}

// BTBState is an opaque copy of the target buffer.
type BTBState struct {
	entries []btbEntry
}

// State copies the BTB.
func (b *BTB) State() BTBState {
	s := BTBState{entries: make([]btbEntry, len(b.entries))}
	copy(s.entries, b.entries)
	return s
}

// RASState is an opaque copy of the return address stack.
type RASState struct {
	slots []uint64
	valid []bool
	top   int
	size  int
}

// State copies the RAS.
func (r *RAS) State() RASState {
	s := RASState{slots: make([]uint64, len(r.slots)), valid: make([]bool, len(r.valid)), top: r.top, size: r.size}
	copy(s.slots, r.slots)
	copy(s.valid, r.valid)
	return s
}

// UnitState is a snapshot of the full prediction unit.
type UnitState struct {
	Dir GshareState
	BTB BTBState
	RAS RASState
}

// State copies the unit.
func (u *Unit) State() UnitState {
	return UnitState{Dir: u.Dir.State(), BTB: u.BTB.State(), RAS: u.RAS.State()}
}
