// Package budget implements per-request resource governance for the
// classification and model-checking pipeline. The hierarchy's decision
// procedures route every query through constructions that are worst-case
// exponential — subset construction, ω-products, complementation,
// canonicalization — so a production service must be able to bound and
// gracefully abort a blowup instead of letting one adversarial formula
// exhaust the process.
//
// A Budget carries two monotone meters with optional caps:
//
//   - states: automaton states materialized by the constructions
//     (DFA subset construction, DFA/ω products, the Büchi counter merge);
//   - steps: abstract work units for the iterative analyses (partition
//     refinements, SCC passes, emptiness refinements).
//
// The budget rides alongside context.Context via With/FromContext, so it
// flows through the whole pipeline without widening every signature; the
// deadline dimension of resource governance is the context's own deadline.
// A nil *Budget is valid everywhere and means "unlimited": un-budgeted
// callers pay one nil check per charge site.
//
// Charges are cumulative across the whole operation tree sharing the
// context, which is what makes the cap meaningful: a formula compilation
// that builds twenty clause automata exhausts one shared budget, not
// twenty private ones.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

var cntExceeded = obs.NewCounter("budget.exceeded")

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// budget exhaustion error. Concrete errors are of type *ExceededError and
// carry which resource ran out and the configured limit.
var ErrBudgetExceeded = errors.New("budget exceeded")

// ExceededError reports which resource of a Budget ran out. It unwraps to
// ErrBudgetExceeded so callers can match the class with errors.Is and
// recover the detail with errors.As.
type ExceededError struct {
	Resource string // "states" or "steps"
	Limit    int64  // the configured cap
	Used     int64  // the charge total that tripped the cap
}

func (e *ExceededError) Error() string {
	return fmt.Sprintf("budget exceeded: %s %d > limit %d", e.Resource, e.Used, e.Limit)
}

func (e *ExceededError) Unwrap() error { return ErrBudgetExceeded }

// Budget is a pair of monotone resource meters with caps. The zero value
// and the nil pointer are both valid and unlimited; construct a capped
// budget with New. All methods are safe for concurrent use — the engine
// charges one budget from many worker goroutines.
type Budget struct {
	maxStates int64
	maxSteps  int64
	states    atomic.Int64
	steps     atomic.Int64
}

// New builds a budget with the given caps; a cap ≤ 0 leaves that resource
// unlimited. New(0, 0) returns nil (fully unlimited), so the disarmed
// path stays a nil check.
func New(maxStates, maxSteps int64) *Budget {
	if maxStates <= 0 && maxSteps <= 0 {
		return nil
	}
	return &Budget{maxStates: maxStates, maxSteps: maxSteps}
}

// ChargeStates records n materialized states and reports *ExceededError
// once the running total passes the cap. Exhaustion is sticky: every
// charge after the cap keeps failing, so a construction that ignores one
// error cannot run away.
func (b *Budget) ChargeStates(n int64) error {
	if b == nil {
		return nil
	}
	v := b.states.Add(n)
	if b.maxStates > 0 && v > b.maxStates {
		cntExceeded.Inc()
		return &ExceededError{Resource: "states", Limit: b.maxStates, Used: v}
	}
	return nil
}

// ChargeSteps records n abstract work steps, with the same semantics as
// ChargeStates.
func (b *Budget) ChargeSteps(n int64) error {
	if b == nil {
		return nil
	}
	v := b.steps.Add(n)
	if b.maxSteps > 0 && v > b.maxSteps {
		cntExceeded.Inc()
		return &ExceededError{Resource: "steps", Limit: b.maxSteps, Used: v}
	}
	return nil
}

// States returns the states charged so far (0 for a nil budget).
func (b *Budget) States() int64 {
	if b == nil {
		return 0
	}
	return b.states.Load()
}

// Steps returns the steps charged so far (0 for a nil budget).
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

type ctxKey struct{}

// With attaches the budget to the context. Attaching nil is a no-op
// returning ctx unchanged.
func With(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext returns the budget carried by the context, or nil
// (unlimited) when none is attached.
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}

// Poll is the combined cooperative-abort check for hot loops: it reports
// the context's cancellation/deadline error if any, then charges n steps
// against the context's budget. Call it wherever a long-running
// construction already polls ctx.Err().
func Poll(ctx context.Context, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return FromContext(ctx).ChargeSteps(n)
}

// ChargeStates charges n states against the context's budget (a no-op
// without one) — the context-carried form of Budget.ChargeStates.
func ChargeStates(ctx context.Context, n int64) error {
	return FromContext(ctx).ChargeStates(n)
}
