package temporal

import (
	"context"

	"repro/internal/engine"
	"repro/internal/plan"
)

// The unified query API. Check runs containment, equivalence,
// emptiness and model-checking queries through the engine's
// hierarchy-aware planner: operands are probed for their class, a
// reachability procedure answers when a safety or guarantee operand makes
// one sound, and the general lazy Streett path answers everything else.
// The Verdict reports the answer together with its provenance — plan
// tier, reason, cost counters, cache/fallback flags.
type (
	// CheckRequest is a planner-backed query; see engine.CheckRequest.
	CheckRequest = engine.CheckRequest
	// CheckKind selects the decision problem of a CheckRequest.
	CheckKind = engine.CheckKind
	// Verdict is a Check result with plan provenance.
	Verdict = engine.Verdict
	// PlanTier identifies the decision procedure that answered a query.
	PlanTier = plan.Tier
	// PlanProbe is the planner's class evidence about one automaton.
	PlanProbe = plan.Probe
	// PlanDecision is a chosen tier plus the reason it is sound.
	PlanDecision = plan.Decision
	// PlanCost counts the work a specialized procedure did.
	PlanCost = plan.Cost
)

// The query kinds.
const (
	CheckContains   = engine.CheckContains
	CheckEquivalent = engine.CheckEquivalent
	CheckEmptiness  = engine.CheckEmptiness
	CheckVerify     = engine.CheckVerify
)

// The plan tiers: the two reachability tiers and the general path.
const (
	TierStreett   = plan.TierStreett
	TierSafety    = plan.TierSafety
	TierGuarantee = plan.TierGuarantee
)

// Check runs one planned query on the default engine. It is the
// convenience form of Engine.Check.
func Check(req CheckRequest) (Verdict, error) {
	return defaultEngine.Check(context.Background(), req)
}

// PlanAutomaton probes the automaton on the default engine and reports
// which tier its queries land in and why — the library form of
// speccheck -explain. The probe is memoized per structural key.
func PlanAutomaton(a *Automaton) (PlanProbe, PlanDecision, error) {
	return defaultEngine.PlanAutomaton(context.Background(), a)
}
