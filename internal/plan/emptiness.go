package plan

import (
	"context"

	"repro/internal/omega"
)

// DecideEmptiness picks the tier for a single-operand emptiness query:
// always the Streett search. The probe is ignored, so callers need not
// compute one: on the benchmark's per-class operand pools the Streett
// search measured within 11% of every class-specialized emptiness
// procedure but persistence's, a few-microsecond query (DESIGN.md §11).
func DecideEmptiness(Probe) Decision {
	return Decision{TierStreett, "emptiness always runs the Streett refinement: there is no class-specialized emptiness procedure"}
}

// EmptinessWith decides whether L(a) = ∅ under the request context with
// the Streett search; d supplies only the outcome's reason. Outcome.Holds
// reports emptiness; a non-empty language comes with an accepted witness
// lasso. Cancellation and budget exhaustion propagate, as does any other
// failure: there is no slower path to fall back to.
func EmptinessWith(ctx context.Context, d Decision, a *omega.Automaton) (Outcome, error) {
	pathCounter(TierStreett)
	w, nonEmpty, err := a.WitnessLassoCtx(ctx)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Holds: !nonEmpty, Witness: w, Tier: TierStreett, Planned: TierStreett, Reason: d.Reason}, nil
}
