package engine

import (
	"errors"
	"fmt"
)

// ErrDeadline marks a job that exceeded its per-job execution deadline
// (Job.Timeout or Options.DefaultTimeout).
var ErrDeadline = errors.New("engine: job deadline exceeded")

// PanicError is a worker panic converted to a typed job error: the panic
// value plus the goroutine stack captured at recovery. A panicking job
// fails alone; the process and the other workers are unaffected.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic: %v", e.Value)
}
