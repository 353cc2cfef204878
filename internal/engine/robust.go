package engine

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/budget"
	"repro/internal/obs"
)

var cntPanics = obs.NewCounter("engine.panics.recovered")

// InternalError is reported when a panic escaped from inside an engine
// operation. The engine converts every panic at its boundary — each
// request and each Batch item — so one poisoned request can neither kill
// the process nor fail the rest of a batch. The error carries the
// operation name, the recovered panic value and the goroutine stack at
// the point of recovery for diagnosis; its message stays one line.
type InternalError struct {
	Op    string // engine operation, e.g. "ClassifyAutomaton"
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() at the recovery point
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error in %s: %v", e.Op, e.Value)
}

// capture runs fn, converting a panic into an *InternalError result. It
// is the engine's recovery boundary: every request and every Batch item
// runs inside one, through serve.
func capture(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cntPanics.Inc()
			err = &InternalError{Op: op, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// WithStateBudget caps the number of automaton states any single request
// may materialize across all its constructions (subset construction,
// DFA/ω-products, canonicalization merges). A request exceeding the cap
// fails with budget.ErrBudgetExceeded instead of exhausting memory;
// n <= 0 means unlimited (the default).
func WithStateBudget(n int64) Option {
	return func(e *Engine) { e.maxStates = n }
}

// WithStepBudget caps the abstract work steps (partition refinements, SCC
// passes, emptiness refinements) any single request may spend; n <= 0
// means unlimited (the default). Deadlines are the context's own job —
// use context.WithTimeout alongside.
func WithStepBudget(n int64) Option {
	return func(e *Engine) { e.maxSteps = n }
}

// withBudget attaches the request-scoped governance every entry point
// owes its downstream constructions: a fresh budget when the engine has
// caps configured and the caller did not already attach one. Each
// top-level request (or Batch item) gets its own budget, so one runaway
// request cannot starve its neighbors; sub-operations share the
// request's budget through the context.
func (e *Engine) withBudget(ctx context.Context) context.Context {
	if e.maxStates <= 0 && e.maxSteps <= 0 {
		return ctx
	}
	if budget.FromContext(ctx) != nil {
		return ctx
	}
	return budget.With(ctx, budget.New(e.maxStates, e.maxSteps))
}
