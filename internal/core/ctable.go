// Package core implements the paper's contribution: Reverse State
// Reconstruction for sampled simulation. While instructions are skipped
// between clusters, branch and memory records are logged (internal/trace);
// this package scans those logs in reverse and repairs cache state eagerly
// (§3.1) and branch-predictor state on demand (§3.2), isolating ineffectual
// skipped instructions without profiling.
package core

import "rsr/internal/bpred"

// StateMap encodes, in two bits per initial state, where each possible
// initial 2-bit counter value {0,1,2,3} ends up after applying some suffix of
// branch outcomes in forward order. The reverse scan extends the suffix one
// older outcome at a time; the set of possible final states is the image of
// the map, which only ever shrinks. IdentityMap is the empty suffix.
type StateMap uint8

// IdentityMap maps every state to itself (binary 11 10 01 00).
const IdentityMap StateMap = 0xE4

// Get returns the final state for initial state s (0..3).
func (m StateMap) Get(s uint8) uint8 { return uint8(m>>(2*s)) & 3 }

// Image returns the set of possible final states as a 4-bit mask.
func (m StateMap) Image() uint8 {
	var mask uint8
	for s := uint8(0); s < 4; s++ {
		mask |= 1 << m.Get(s)
	}
	return mask
}

// Resolution is the a-priori table entry for one StateMap: the counter value
// to install and how it was determined.
type Resolution struct {
	// Value is the counter state to install, meaningful when Known.
	Value uint8
	// Exact reports that the outcome history pins the counter uniquely.
	Exact bool
	// Known reports that a value should be installed at all; with no
	// history (all four states possible) the entry is left stale.
	Known bool
}

// The tables are built once at package init — the paper's "table built a
// priori so that reconstruction can be implemented through a table lookup".
var (
	// extendTable[m][taken] is the StateMap after prepending one older
	// outcome to the suffix m describes.
	extendTable [256][2]StateMap
	// resolveTable[m] is the inference for the possible-state set of m.
	resolveTable [256]Resolution
)

func init() {
	for m := 0; m < 256; m++ {
		sm := StateMap(m)
		for t := 0; t < 2; t++ {
			// Prepending an older outcome o: new(s) = old(step(s, o)).
			var out StateMap
			for s := uint8(0); s < 4; s++ {
				stepped := bpred.CounterStep(s, t == 1)
				out |= StateMap(sm.Get(stepped)) << (2 * s)
			}
			extendTable[m][t] = out
		}
		resolveTable[m] = resolve(sm)
	}
}

// resolve implements the paper's inference rules on the possible-state set:
// a singleton is exact; a bias toward one direction yields the weak form of
// that direction; three candidates yield the middle state; four candidates
// (no history) leave the entry stale.
func resolve(m StateMap) Resolution {
	img := m.Image()
	var states []uint8
	for s := uint8(0); s < 4; s++ {
		if img&(1<<s) != 0 {
			states = append(states, s)
		}
	}
	switch len(states) {
	case 1:
		return Resolution{Value: states[0], Exact: true, Known: true}
	case 2:
		lo, hi := states[0], states[1]
		switch {
		case hi <= bpred.WeaklyNotTaken:
			return Resolution{Value: bpred.WeaklyNotTaken, Known: true}
		case lo >= bpred.WeaklyTaken:
			return Resolution{Value: bpred.WeaklyTaken, Known: true}
		default:
			// Mixed-direction pair: take the midpoint, rounding toward
			// not-taken (the predictor's reset bias).
			return Resolution{Value: (lo + hi) / 2, Known: true}
		}
	case 3:
		return Resolution{Value: states[1], Known: true}
	default:
		return Resolution{}
	}
}

// ExtendMap prepends one older branch outcome to the suffix described by m.
func ExtendMap(m StateMap, taken bool) StateMap {
	if taken {
		return extendTable[m][1]
	}
	return extendTable[m][0]
}

// Resolve returns the a-priori inference for m.
func Resolve(m StateMap) Resolution { return resolveTable[m] }
