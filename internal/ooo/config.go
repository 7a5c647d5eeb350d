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
package ooo

import "rsr/internal/isa"

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
