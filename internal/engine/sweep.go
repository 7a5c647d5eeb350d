package engine

import "context"

// sweepKey carries a sweep trace tag through Submit.
type sweepKey struct{}

// WithSweep tags ctx with a sweep trace tag (X-Sweep-ID at the HTTP edge).
// Every span the tagged submission records — engine scheduling spans and the
// per-cluster sampling spans inside the run — is stamped with the tag, so a
// trace aggregator can carve one distributed sweep out of a shared span ring.
// The tag is tracing context, not identity: it never enters the job hash,
// and a coalesced duplicate shares the first submitter's tag.
func WithSweep(ctx context.Context, sweep string) context.Context {
	if sweep == "" {
		return ctx
	}
	return context.WithValue(ctx, sweepKey{}, sweep)
}

// SweepFrom returns the sweep trace tag tagged on ctx, or "".
func SweepFrom(ctx context.Context) string {
	sweep, _ := ctx.Value(sweepKey{}).(string)
	return sweep
}
