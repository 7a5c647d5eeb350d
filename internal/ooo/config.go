// Package ooo implements the cycle-level out-of-order superscalar timing
// model of the paper's machine (§4): an eight-wide fetch/dispatch front end,
// four-wide issue and retire, eight universal fully-pipelined function units,
// a 64-entry reorder window, a 32-entry issue queue, a 64-entry load/store
// queue, a seven-stage pipeline with a five-cycle minimum branch
// misprediction penalty, and architectural checkpoints allowing speculation
// beyond eight unresolved branches.
//
// The model is trace-driven within clusters: it replays the committed dynamic
// instruction stream from the functional simulator, probing the branch
// predictor at fetch and the cache hierarchy at fetch/execute, and models
// wrong-path work as fetch bubbles (resolution + penalty). That is the
// standard sampled-simulation approximation; warm-up methods only interact
// with cache and predictor state, which behaves identically.
//
// The model is cycle-accurate, but it does not step through idle cycles:
// machine state changes with time alone only at four kinds of event (an
// issued instruction completes, the fetch-queue head clears the front end, a
// branch resolves, a fetch stall ends), so a cycle in which no stage moves
// jumps to the next of them. Anyone adding a time-dependent condition to a
// stage must add its event to nextEvent.
//
// Nor does it poll the issue queue. One ring holds the ROB and, behind it,
// the fetch queue: fetch builds an entry in the slot it keeps until it
// retires, and dispatch moves the boundary. At dispatch an entry folds the
// completion cycles of its producers that have issued into its readyAt and
// joins the wake list of each that has not; a load blocked by an older store
// whose address is unknown joins the store's. When an entry issues it walks
// its list, and a consumer that waits for nothing more may issue from its
// readyAt. Beside the issue queue, iqAt holds the cycle each entry may issue
// from, so select reads the ROB only for an entry that can issue. Select
// takes ready entries in issue-queue order — dispatch order, broken by the
// swap-remove of each issued entry — and that order, which decides who wins
// the issue width, is part of what defines every result.
package ooo

import (
	"fmt"

	"rsr/internal/isa"
)

// Config holds the machine parameters.
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	RetireWidth   int
	NumFUs        int
	ROBSize       int
	IQSize        int
	LSQSize       int
	// FrontEndDelay is the number of cycles between fetch completion and
	// dispatch eligibility (decode/rename depth). Together with fetch,
	// issue, execute, and retire it forms the seven-stage pipeline.
	FrontEndDelay uint64
	// BranchPenalty is the minimum misprediction penalty in cycles, applied
	// from branch resolution to fetch resumption.
	BranchPenalty uint64
	// MaxBranches is the number of unresolved in-flight branches permitted
	// by the checkpointing hardware; fetch stalls beyond it.
	MaxBranches int
	// FetchQueueSize bounds instructions fetched but not yet dispatched.
	FetchQueueSize int
}

// maxSize bounds every width and size of a Config, so that a ring position
// (the ring holds ROBSize+FetchQueueSize entries) times two, and an issue
// queue index, fit the wake lists' 16-bit links below noLink.
const maxSize = 1 << 13

// Validate reports a width or size outside [1, 8192]. At 0 the model can
// never move (no fetch, dispatch, issue or retire), so a run would not end;
// above the bound, ring positions would not fit the wake lists' links.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"IssueWidth", c.IssueWidth}, {"RetireWidth", c.RetireWidth},
		{"NumFUs", c.NumFUs}, {"ROBSize", c.ROBSize}, {"IQSize", c.IQSize},
		{"LSQSize", c.LSQSize}, {"MaxBranches", c.MaxBranches},
		{"FetchQueueSize", c.FetchQueueSize},
	} {
		if f.v < 1 || f.v > maxSize {
			return fmt.Errorf("ooo: %s %d out of range [1, %d]", f.name, f.v, maxSize)
		}
	}
	return nil
}

// DefaultConfig returns the paper's core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:     8,
		DispatchWidth:  8,
		IssueWidth:     4,
		RetireWidth:    4,
		NumFUs:         8,
		ROBSize:        64,
		IQSize:         32,
		LSQSize:        64,
		FrontEndDelay:  3,
		BranchPenalty:  5,
		MaxBranches:    8,
		FetchQueueSize: 16,
	}
}

// Latency returns the execution latency in cycles for non-memory classes.
// Loads and stores derive their timing from the memory hierarchy.
func Latency(c isa.Class) uint64 {
	switch c {
	case isa.ClassIntALU, isa.ClassNop:
		return 1
	case isa.ClassIntMul:
		return 3
	case isa.ClassIntDiv:
		return 12
	case isa.ClassFPALU:
		return 2
	case isa.ClassFPMul:
		return 4
	case isa.ClassFPDiv:
		return 12
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn, isa.ClassJumpIndirect:
		return 1
	default:
		return 1
	}
}

// writesRd reports whether instructions of class c produce a register value.
func writesRd(c isa.Class) bool {
	switch c {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
		isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv,
		isa.ClassLoad, isa.ClassCall:
		return true
	}
	return false
}
