package measure

import (
	"context"
	"fmt"
)

// Cooperative campaign cancellation. A campaign executor armed with a
// context (SetContext) checks it at the deterministic points of its
// schedule — the start of every primitive (a journal phase boundary)
// and after each per-VP batch checkpoint is recorded — and aborts by
// panicking with a Canceled payload. Checking
// only at those boundaries is what keeps cancellation compatible with
// the resume-equals-uninterrupted property (DESIGN.md §11): every batch
// the journal holds when the abort lands is complete and was produced
// at exactly the virtual time an uninterrupted run produces it, so a
// resumed campaign reproduces the whole run byte-identically no matter
// where the wall clock cut it off.
//
// The panic is deliberate: campaign primitives return result maps, not
// errors. An abort at a per-VP checkpoint stops its replica; the
// primitive raises it on the caller's goroutine once the other replicas
// stop, as a replica's crash is raised (a ShardError). Callers that arm
// a context must recover at the granularity they care about and
// classify with CanceledFrom.

// Canceled is the panic payload of a cooperative campaign abort. Err is
// the context's error: context.Canceled for an explicit cancel,
// context.DeadlineExceeded for a deadline.
type Canceled struct{ Err error }

// Error satisfies the error interface so the payload reads well when a
// recover seam stringifies it.
func (c Canceled) Error() string { return fmt.Sprintf("measure: campaign canceled: %v", c.Err) }

// CanceledFrom extracts the context error from a recovered panic value,
// reporting whether the panic was a cooperative campaign abort.
func CanceledFrom(r any) (error, bool) {
	c, ok := r.(Canceled)
	if !ok {
		return nil, false
	}
	return c.Err, true
}

// checkCanceled aborts the campaign if ctx is done. nil ctx (the
// default, un-armed executor) never aborts.
func checkCanceled(ctx context.Context) {
	if ctx == nil {
		return
	}
	if err := ctx.Err(); err != nil {
		panic(Canceled{err})
	}
}
