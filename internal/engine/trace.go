package engine

import (
	"context"
	"errors"

	"repro/internal/budget"
	"repro/internal/obs"
)

// noFinish is the disabled-path finisher, shared so the no-op case does
// not allocate a closure.
var noFinish = func(*error) {}

// startRequest opens the request-scoped observability envelope: it
// ensures the context carries a TraceID (minting one for requests that
// arrive without — CLI calls; the daemon mints its own at the HTTP
// boundary), and starts an "engine.request" root span under which every
// stage span of the request nests and inherits the trace id. The
// returned finish must be called with the operation's error address
// once the request completes; it stamps what the request actually cost
// — budget states/steps spent — and how it ended (ok, canceled, budget,
// panic) before closing the span.
//
// While no sink is attached and no trace id rides the context the whole
// envelope is skipped, preserving the obs layer's free-when-off
// contract for library users.
func (e *Engine) startRequest(ctx context.Context, op string) (context.Context, func(*error)) {
	if !obs.Enabled() && obs.TraceIDFrom(ctx) == "" {
		return ctx, noFinish
	}
	ctx, _ = obs.EnsureTraceID(ctx)
	sp := obs.StartIn(ctx, "engine.request")
	sp.Str("op", op)
	reqCtx := ctx
	return ctx, func(errp *error) {
		if b := budget.FromContext(reqCtx); b != nil {
			sp.Int64("budget.states", b.States()).Int64("budget.steps", b.Steps())
		}
		if errp != nil && *errp != nil {
			sp.Str("outcome", errClass(*errp))
		}
		sp.End()
	}
}

// errClass buckets a request error for span attribution and the
// daemon's labeled response counters; the classes are closed and
// low-cardinality by construction.
func errClass(err error) string {
	var ierr *InternalError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, budget.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.As(err, &ierr):
		return "internal_panic"
	default:
		return "error"
	}
}
