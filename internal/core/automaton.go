package core

import (
	"context"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/omega"
)

var cntClassifications = obs.NewCounter("classify.automaton.calls")

// Analysis is the shared state-space analysis behind the §5.1 decision
// procedures: the reachable region and the live/co-live restrictions that
// every per-class check consults, computed once per classification.
// Analysis is immutable after Analyze returns, so its check methods are
// safe for concurrent use.
type Analysis struct {
	a           *omega.Automaton
	reach       []bool
	liveReach   []bool
	coLiveReach []bool
}

// Analyze precomputes the reachable, live-reachable and co-live-reachable
// state sets of the automaton.
func Analyze(a *omega.Automaton) *Analysis {
	reach := a.Reachable()
	live := a.LiveStates()
	coLive := a.CoLiveStates()
	n := a.NumStates()
	liveReach := make([]bool, n)
	coLiveReach := make([]bool, n)
	for q := 0; q < n; q++ {
		liveReach[q] = reach[q] && live[q]
		coLiveReach[q] = reach[q] && coLive[q]
	}
	return &Analysis{a: a, reach: reach, liveReach: liveReach, coLiveReach: coLiveReach}
}

// Automaton returns the analyzed automaton.
func (an *Analysis) Automaton() *omega.Automaton { return an.a }

// Safety decides the safety (closed) condition: no accessible rejecting
// cycle within the live region — every run that stays inside Pref(Π)
// forever is accepted.
func (an *Analysis) Safety(ctx context.Context) (bool, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return false, err
	}
	sub := obs.StartIn(ctx, "classify.safety")
	defer sub.End()
	ok := an.a.RejectingCycleWithin(an.liveReach) == nil
	sub.Bool("safety", ok)
	return ok, nil
}

// Guarantee decides the guarantee (open) condition: dually, no accessible
// accepting cycle within the co-live region.
func (an *Analysis) Guarantee(ctx context.Context) (bool, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return false, err
	}
	sub := obs.StartIn(ctx, "classify.guarantee")
	defer sub.End()
	ok := an.a.AcceptingCycleWithin(an.coLiveReach) == nil
	sub.Bool("guarantee", ok)
	return ok, nil
}

// Recurrence decides Landweber's G_δ condition: the accepting family F is
// closed under accessible supersets — no rejecting cycle contains an
// accepting one.
func (an *Analysis) Recurrence(ctx context.Context) (bool, error) {
	sub := obs.StartIn(ctx, "classify.recurrence")
	defer sub.End()
	ok, err := isRecurrence(ctx, an.a, an.reach)
	if err != nil {
		return false, err
	}
	sub.Bool("recurrence", ok)
	return ok, nil
}

// Persistence decides the F_σ condition: F is closed under accessible
// subsets — no accepting cycle contains a rejecting one.
func (an *Analysis) Persistence(ctx context.Context) (bool, error) {
	sub := obs.StartIn(ctx, "classify.persistence")
	defer sub.End()
	ok, err := isPersistence(ctx, an.a, an.reach)
	if err != nil {
		return false, err
	}
	sub.Bool("persistence", ok)
	return ok, nil
}

// ReactivityRank computes Wagner's exact reactivity rank via alternating
// chains of accessible cycles (see chains.go).
func (an *Analysis) ReactivityRank(ctx context.Context) (int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return 0, err
	}
	sub := obs.StartIn(ctx, "classify.rank.reactivity")
	defer sub.End()
	r := reactivityRank(an.a, an.reach)
	sub.Int("reactivity_rank", r)
	return r, nil
}

// ObligationRank computes the exact obligation rank; only meaningful when
// the property is an obligation property.
func (an *Analysis) ObligationRank(ctx context.Context) (int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return 0, err
	}
	sub := obs.StartIn(ctx, "classify.rank.obligation")
	defer sub.End()
	r := obligationRank(an.a, an.reach)
	sub.Int("obligation_rank", r)
	return r, nil
}

// Resolve assembles a Classification from the four per-class verdicts,
// applying the structural containments of Figure 1: safety and guarantee
// are contained in recurrence and persistence (the semantic procedures
// agree, but the containment is made structural), and obligation =
// recurrence ∩ persistence.
func Resolve(safety, guarantee, recurrence, persistence bool) Classification {
	c := Classification{
		Safety:      safety,
		Guarantee:   guarantee,
		Recurrence:  recurrence,
		Persistence: persistence,
		Reactivity:  true,
	}
	if c.Safety || c.Guarantee {
		c.Recurrence = true
		c.Persistence = true
	}
	c.Obligation = c.Recurrence && c.Persistence
	return c
}

// ClassifyAutomaton classifies the property specified by a deterministic
// Streett automaton into the hierarchy — the decision procedures of §5.1.
//
// The procedures are semantic: they decide the class of the *property*,
// not the syntactic shape of the automaton, and agree with the paper's
// structural checks on reduced automata.
//
//   - safety (closed): no accessible rejecting cycle within the live
//     region — every run that stays inside Pref(Π) forever is accepted.
//   - guarantee (open): dually, no accessible accepting cycle within the
//     co-live region.
//   - recurrence (G_δ, Landweber): the accepting family F is closed under
//     accessible supersets: no rejecting cycle contains an accepting one.
//   - persistence (F_σ): F is closed under accessible subsets.
//   - obligation: recurrence ∧ persistence (the paper's
//     "obligation = recurrence ∩ persistence").
//   - ranks: Wagner's alternating chains (see chains.go).
func ClassifyAutomaton(a *omega.Automaton) Classification {
	c, err := ClassifyAutomatonCtx(context.Background(), a)
	if err != nil {
		// Only reachable under budget exhaustion or fault injection, and a
		// background context carries neither in production; returning the
		// zero Classification would silently misclassify.
		panic(err)
	}
	return c
}

// ClassifyAutomatonCtx is ClassifyAutomaton with cooperative cancellation:
// the context is polled between and inside the per-class checks, so
// classification of a large automaton aborts promptly when the caller
// cancels. The checks run one after another on the caller's goroutine;
// internal/engine memoizes this procedure and adds nothing to it.
func ClassifyAutomatonCtx(ctx context.Context, a *omega.Automaton) (Classification, error) {
	sp := obs.StartIn(ctx, "classify.automaton").Int("states", a.NumStates()).Int("pairs", a.NumPairs())
	defer sp.End()
	cntClassifications.Inc()
	an := Analyze(a)

	safety, err := an.Safety(ctx)
	if err != nil {
		return Classification{}, err
	}
	guarantee, err := an.Guarantee(ctx)
	if err != nil {
		return Classification{}, err
	}
	recurrence, err := an.Recurrence(ctx)
	if err != nil {
		return Classification{}, err
	}
	persistence, err := an.Persistence(ctx)
	if err != nil {
		return Classification{}, err
	}
	c := Resolve(safety, guarantee, recurrence, persistence)

	sub := obs.StartIn(ctx, "classify.ranks")
	c.ReactivityRank, err = an.ReactivityRank(ctx)
	if err == nil && c.Obligation {
		c.ObligationRank, err = an.ObligationRank(ctx)
	}
	sub.Int("reactivity_rank", c.ReactivityRank).Int("obligation_rank", c.ObligationRank)
	sub.End()
	if err != nil {
		return Classification{}, err
	}
	return c, nil
}

// isRecurrence checks Landweber's G_δ condition: there must be no
// accessible rejecting cycle A containing an accepting cycle J. A breaks
// some pair i (A ∩ R_i = ∅, A ⊄ P_i), so A lives inside a strongly
// connected component S of the graph restricted to reachable states
// outside R_i with S ⊄ P_i; conversely any accepting J inside such an S
// extends to a violating A by routing through a ¬P_i state of S.
func isRecurrence(ctx context.Context, a *omega.Automaton, reach []bool) (bool, error) {
	n := a.NumStates()
	for i := 0; i < a.NumPairs(); i++ {
		if err := budget.Poll(ctx, 1); err != nil {
			return false, err
		}
		r, p := a.PairVectors(i)
		allowed := make([]bool, n)
		for q := 0; q < n; q++ {
			allowed[q] = reach[q] && !r[q]
		}
		for _, comp := range a.SCCs(allowed) {
			if err := budget.Poll(ctx, 1); err != nil {
				return false, err
			}
			if !a.IsCyclic(comp) {
				continue
			}
			outside := false
			for _, q := range comp {
				if !p[q] {
					outside = true
					break
				}
			}
			if !outside {
				continue
			}
			if a.AcceptingCycleWithin(a.StateSet(comp)) != nil {
				return false, nil
			}
		}
	}
	return true, nil
}

// isPersistence checks the F_σ condition: no accessible accepting cycle A
// contains a rejecting cycle J. The search mirrors the Streett emptiness
// refinement: an accepting cycle inside a component S either is S itself
// (when S is accepting — then any rejecting subcycle of S violates), or
// lies inside the P-restriction of S's broken pairs.
func isPersistence(ctx context.Context, a *omega.Automaton, reach []bool) (bool, error) {
	v, err := persistenceViolationWithin(ctx, a, reach)
	return !v, err
}

func persistenceViolationWithin(ctx context.Context, a *omega.Automaton, allowed []bool) (bool, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return false, err
	}
	for _, comp := range a.SCCs(allowed) {
		if !a.IsCyclic(comp) {
			continue
		}
		v, err := persistenceViolationInSCC(ctx, a, comp)
		if err != nil {
			return false, err
		}
		if v {
			return true, nil
		}
	}
	return false, nil
}

func persistenceViolationInSCC(ctx context.Context, a *omega.Automaton, comp []int) (bool, error) {
	bad := a.BrokenPairs(comp)
	if len(bad) == 0 {
		// comp itself is an accepting cycle: a violation exists iff it
		// contains any rejecting cycle.
		return a.RejectingCycleWithin(a.StateSet(comp)) != nil, nil
	}
	restricted := make([]bool, a.NumStates())
	count := 0
	for _, q := range comp {
		keep := true
		for _, i := range bad {
			_, p := a.PairVectors(i)
			if !p[q] {
				keep = false
				break
			}
		}
		if keep {
			restricted[q] = true
			count++
		}
	}
	if count == 0 {
		return false, nil
	}
	return persistenceViolationWithin(ctx, a, restricted)
}
