package plan

import (
	"context"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/omega"
)

// Probe is the planner's cheap, automaton-local evidence about one
// operand. Every field is a sufficient condition for some specialized
// procedure; all are computed from the operand alone (never from a
// product), so probes are memoizable under the automaton's structural
// key.
//
// Safety and Guarantee are the SEMANTIC §5.1 conditions, not the
// syntactic shapes: the multi-pair good-states shape does not imply the
// semantic class, and soundness of the fast paths needs the semantics.
type Probe struct {
	// Safety: every run that stays in the live region forever is
	// accepted (no rejecting cycle within live∩reach). Equivalently the
	// language is closed: L = {σ : no bad prefix}.
	Safety bool
	// Guarantee: dually, no accepting cycle within co-live∩reach; the
	// language is open: accepted iff the run ever enters the co-dead
	// region.
	Guarantee bool
	// States and Pairs size the operand, for -explain output.
	States, Pairs int
}

// ProbeAutomaton computes the operand probe. The work is automaton-local
// — the live and co-live regions and their cycles — and is charged to
// the context's budget like any other analysis.
func ProbeAutomaton(ctx context.Context, a *omega.Automaton) (Probe, error) {
	sp := obs.StartIn(ctx, "plan.probe").Int("states", a.NumStates())
	defer sp.End()
	if err := budget.Poll(ctx, 1); err != nil {
		return Probe{}, err
	}
	an, err := core.AnalyzeCtx(ctx, a)
	if err != nil {
		return Probe{}, err
	}
	safety, err := an.Safety(ctx)
	if err != nil {
		return Probe{}, err
	}
	guarantee, err := an.Guarantee(ctx)
	if err != nil {
		return Probe{}, err
	}
	p := Probe{
		Safety:    safety,
		Guarantee: guarantee,
		States:    a.NumStates(),
		Pairs:     a.NumPairs(),
	}
	sp.Bool("safety", p.Safety).Bool("guarantee", p.Guarantee)
	return p, nil
}

// ProbeOf is the probe of an automaton already classified: core decides
// a classification's Safety and Guarantee with the same core.Analysis
// checks ProbeAutomaton runs, so reading them off costs nothing.
func ProbeOf(a *omega.Automaton, c core.Classification) Probe {
	return Probe{Safety: c.Safety, Guarantee: c.Guarantee, States: a.NumStates(), Pairs: a.NumPairs()}
}

// DecideContains picks the cheapest sound tier for L(a) ⊇ L(b) given
// the operand probes. Safety needs only the container's class (the
// witness search is pure reachability); guarantee needs both operands
// open; everything else runs the lazy Streett product.
func DecideContains(pa, pb Probe) Decision {
	switch {
	case pa.Safety:
		return Decision{TierSafety, "container is a safety property: containment is bad-prefix reachability, no Streett analysis of the product"}
	case pa.Guarantee && pb.Guarantee:
		return Decision{TierGuarantee, "both operands are guarantee properties: containment reduces to reachability of the co-dead regions"}
	default:
		return Decision{TierStreett, "neither a safety container nor two guarantee operands: general lazy Streett product"}
	}
}

// DecideOperand reports the tier queries over this single operand land
// in — the per-requirement answer behind speccheck -explain. Precedence
// matches DecideContains.
func DecideOperand(p Probe) Decision {
	switch {
	case p.Safety:
		return Decision{TierSafety, "semantically safety (closed): bad-prefix reachability suffices, no Streett pairs"}
	case p.Guarantee:
		return Decision{TierGuarantee, "semantically guarantee (open): reachability of the co-dead region suffices"}
	default:
		return Decision{TierStreett, "neither safety nor guarantee: general Streett machinery"}
	}
}
