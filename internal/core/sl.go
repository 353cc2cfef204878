package core

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/omega"
)

// This file implements the safety–liveness (SL) classification of
// [Lam83]/[AS85] as presented in §2 of the paper, on automata.

// SLParts is the decomposition Π = Π_S ∩ Π_L.
type SLParts struct {
	// SafetyPart is the safety closure A(Pref(Π)) = cl(Π).
	SafetyPart *omega.Automaton
	// LivenessPart is the liveness extension 𝓛(Π) = Π ∪ E(¬Pref(Π)).
	LivenessPart *omega.Automaton
}

// DecomposeSL returns the paper's canonical decomposition of a property
// into a safety part and a liveness part whose intersection is the
// property.
func DecomposeSL(a *omega.Automaton) SLParts {
	return SLParts{SafetyPart: a.SafetyClosure(), LivenessPart: a.LivenessExtension()}
}

// IsLiveness reports whether the property is a liveness property:
// Pref(Π) = Σ⁺ (topologically, Π is dense).
func IsLiveness(a *omega.Automaton) bool { return a.IsLivenessProperty() }

// ErrTooLarge is returned when a construction would exceed its size cap.
// It unwraps to budget.ErrBudgetExceeded — the package-local cap is one
// instance of the pipeline-wide budget discipline — so callers can match
// either the specific or the general sentinel with errors.Is.
var ErrTooLarge = fmt.Errorf("core: construction exceeds size cap: %w", budget.ErrBudgetExceeded)

// IsUniformLiveness decides whether the property is a uniform liveness
// property: a single infinite word σ′ exists with Σ⁺·σ′ ⊆ Π. On a
// complete deterministic automaton this holds iff some lasso word is
// accepted from every state reachable by a non-empty word; the check
// intersects the automaton restarted at each such state. The product is
// exponential in the worst case, so the number of restart states is
// capped (≤ maxStates; 0 means 16).
func IsUniformLiveness(a *omega.Automaton, maxStates int) (bool, error) {
	if maxStates == 0 {
		maxStates = 16
	}
	// States reachable by at least one symbol.
	n := a.NumStates()
	seen := make([]bool, n)
	var stack []int
	for _, next := range a.Successors(a.Start()) {
		if !seen[next] {
			seen[next] = true
			stack = append(stack, next)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range a.Successors(q) {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	var restarts []int
	for q, ok := range seen {
		if ok {
			restarts = append(restarts, q)
		}
	}
	if len(restarts) > maxStates {
		return false, fmt.Errorf("%w: %d restart states > %d", ErrTooLarge, len(restarts), maxStates)
	}
	if len(restarts) == 0 {
		return false, nil
	}
	autos := make([]*omega.Automaton, len(restarts))
	for i, q := range restarts {
		autos[i] = a.WithStart(q)
	}
	// Lazy intersection: a uniform witness short-circuits as soon as the
	// explored region of the restart product contains an accepting cycle,
	// which keeps the exponential blow-up a worst case instead of the
	// every-call cost.
	_, ok, err := omega.IntersectWitness(autos...)
	if err != nil {
		return false, err
	}
	return ok, nil
}

// VerifySLDecomposition checks Π = Π_S ∩ Π_L exactly and that the
// liveness part is indeed a liveness property; it returns an error
// describing any violation (nil if the paper's claim holds — it always
// should).
func VerifySLDecomposition(a *omega.Automaton) error {
	parts := DecomposeSL(a)
	if !IsLiveness(parts.LivenessPart) {
		return fmt.Errorf("core: liveness extension is not a liveness property")
	}
	inter, err := parts.SafetyPart.Intersect(parts.LivenessPart)
	if err != nil {
		return err
	}
	eq, ce, err := a.Equivalent(inter)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("core: Π ≠ Π_S ∩ Π_L, counterexample %v", ce)
	}
	cls := ClassifyAutomaton(parts.SafetyPart)
	if !cls.Safety {
		return fmt.Errorf("core: safety closure is not a safety property")
	}
	return nil
}
