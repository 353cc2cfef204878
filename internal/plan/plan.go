// Package plan is the engine's query planner. The paper's hierarchy is
// operational, not just taxonomic: §5.1 reduces safety and guarantee
// properties to reachability, so containment in a safety property needs
// only bad-prefix (invariant) reasoning and containment between
// guarantee properties only reachability of the co-dead region. This
// package probes a query's operands for those two classes cheaply —
// automaton-local work only — and dispatches containment and model
// checking to the matching reachability procedure. Every other query,
// and every emptiness query, runs the lazy Streett path
// (omega.ContainsCtx, Automaton.WitnessLassoCtx). The Büchi, co-Büchi
// and weak special cases were timed against the Streett refinement
// whose first iteration they are, and did not pay for their code
// (DESIGN.md §11).
//
// The contract, in one sentence: a specialized path may be chosen only
// when the probe proves it sound, it must agree verdict-and-witness
// with the Streett procedures whenever chosen, and any non-governance
// failure inside it falls back to the Streett path rather than
// surfacing (governance errors — cancellation, deadline, budget —
// always propagate, so callers' 503 mapping holds through the planner).
package plan

import (
	"context"
	"errors"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/word"
)

// Tier identifies which decision procedure answered (or would answer) a
// query. The zero value is the general Streett path, so a zero Outcome
// is never misread as a fast-path verdict.
type Tier int

const (
	// TierStreett is the general path: lazy Streett product with
	// candidate-broken-pair SCC refinement. Always sound, never cheap.
	TierStreett Tier = iota
	// TierSafety answers via bad-prefix reachability: product BFS into
	// the container's dead region, no Streett pairs on the product.
	TierSafety
	// TierGuarantee answers via reachability of the co-dead region —
	// the Boolean-combination-of-reachability argument for open sets.
	TierGuarantee
	// TierObligation, TierRecurrence and TierPersistence are retired:
	// the planner never chooses them. They keep their values and names
	// because verdict-store records written before their retirement
	// name them.
	TierObligation
	TierRecurrence
	TierPersistence
)

// String returns the tier's wire name (also the obs label value).
func (t Tier) String() string {
	switch t {
	case TierSafety:
		return "safety"
	case TierGuarantee:
		return "guarantee"
	case TierObligation:
		return "obligation"
	case TierRecurrence:
		return "recurrence"
	case TierPersistence:
		return "persistence"
	default:
		return "streett"
	}
}

// Procedure returns a one-line description of the decision procedure the
// tier runs; speccheck -explain prints it next to each requirement.
func (t Tier) Procedure() string {
	switch t {
	case TierSafety:
		return "bad-prefix reachability (product BFS, no Streett pairs)"
	case TierGuarantee:
		return "co-dead reachability (boolean combination of reachability)"
	default:
		return "lazy Streett product with broken-pair SCC refinement"
	}
}

// CostNote returns the asymptotic cost of the tier's procedure on a
// product with n states, m edges and k Streett pairs.
func (t Tier) CostNote() string {
	switch t {
	case TierSafety, TierGuarantee:
		return "O(n+m) reachability"
	default:
		return "O(k·(n+m)) per refinement level, up to k levels"
	}
}

// Decision is the planner's choice for one query: the tier to run and a
// human-readable reason (surfaced by speccheck -explain and in
// Outcome.Reason).
type Decision struct {
	Tier   Tier
	Reason string
}

// Cost counts the work a specialized procedure actually did, so
// verdicts can carry evidence that the fast path was cheaper.
type Cost struct {
	// ProductStates is the number of product states the BFS interned.
	ProductStates int64
	// SCCPasses counts full SCC decompositions run on the product. The
	// reachability tiers keep it at zero; it stays in the type (and the
	// store's record layout) for records of the retired SCC tiers.
	SCCPasses int64
}

// Outcome is a planned query's result: the verdict, a witness lasso
// when the verdict calls for one (zero otherwise), and the provenance —
// which tier actually answered, why it was chosen, and whether the
// planner had to abandon a specialized path.
type Outcome struct {
	Holds   bool
	Witness word.Lasso
	// Tier is the tier that produced the verdict. After a fallback this
	// is TierStreett even though the plan chose something else.
	Tier Tier
	// Planned is the tier the planner selected before execution.
	Planned Tier
	// Reason explains the plan (and the fallback, if one happened).
	Reason string
	// Fallback is set when a specialized path failed non-fatally and
	// the Streett path supplied the verdict. Fallback outcomes must not
	// be memoized: the failure may have been injected.
	Fallback bool
	Cost     Cost
}

var cntFallbacks = obs.NewCounter("plan.fallbacks")

// pathCounter counts dispatches per tier under plan.path{tier=…}. Tier
// names are a closed six-value set, so label cardinality is bounded.
func pathCounter(t Tier) {
	obs.Default().Counter("plan.path", obs.Label{Key: "tier", Value: t.String()}).Inc()
}

// governance reports whether err is a resource-governance signal —
// cancellation, deadline or budget exhaustion. Governance errors
// propagate out of the planner unchanged; falling back would just repeat
// the work the caller asked us to stop.
func governance(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, budget.ErrBudgetExceeded)
}
