package omega

import (
	"context"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file implements the lazy decision procedures on top of
// ProductExplorer: containment and product emptiness that interleave
// on-the-fly product construction with the Streett SCC refinement and
// return the moment a witness lasso is found.
//
// Soundness of the early exit rests on one invariant (see
// ProductExplorer.view): the closed region is a subgraph of the full
// product whose edges are final, so an accepting (or containment-
// violating) cycle found inside it is a genuine cycle of the full
// product, and a path to it through closed states is a genuine path.
// Only the *negative* answer ("no witness") requires the whole product,
// which is why the procedures keep exploring until done before
// concluding emptiness or containment.

// lazyContainsCtx decides L(a) ⊇ L(b) by exploring the product in
// doubling waves. After each wave it runs the eager procedure's
// candidate-broken-pair search (see ContainsEagerCtx) restricted to the
// closed region; a witness found there is final, and exhausting the
// product without one refutes all candidate broken pairs.
func (a *Automaton) lazyContainsCtx(ctx context.Context, b *Automaton, firstWave int) (bool, word.Lasso, error) {
	if !a.alpha.Equal(b.alpha) {
		return false, word.Lasso{}, errAlphabetMismatch("containment", a.alpha, b.alpha)
	}
	sp := obs.StartIn(ctx, "omega.contains").
		Int("left_states", a.NumStates()).Int("right_states", b.NumStates())
	defer sp.End()
	ex, err := NewProductExplorer(a, b)
	if err != nil {
		return false, word.Lasso{}, err
	}
	waves := 0
	defer func() {
		sp.Int("states_materialized", ex.Materialized()).Int("waves", waves)
	}()
	alo, ahi := ex.PairRange(0)
	blo, bhi := ex.PairRange(1)
	for limit := firstWave; ; limit *= 2 {
		done, err := ex.ExploreCtx(ctx, limit)
		if err != nil {
			return false, word.Lasso{}, err
		}
		waves++
		view, closed := ex.view()
		aPairs := view.pairs[alo:ahi]
		bPairs := view.pairs[blo:bhi]
		for _, broken := range aPairs {
			if err := budget.Poll(ctx, 1); err != nil {
				return false, word.Lasso{}, err
			}
			w, found, err := view.brokenPairLasso(ctx, bPairs, broken, closed, closed)
			if err != nil {
				return false, word.Lasso{}, err
			}
			if !found {
				continue
			}
			if !done {
				cntLazyEarlyExits.Inc()
				sp.Bool("early_exit", true)
			}
			return false, w, nil
		}
		if done {
			return true, word.Lasso{}, nil
		}
	}
}

// IntersectWitness returns a lasso in L(a₁) ∩ … ∩ L(aₙ), or ok=false if
// the intersection is empty — the lazy form of IntersectAll followed by
// WitnessLasso, which never materializes more of the product than the
// emptiness refinement needs.
func IntersectWitness(autos ...*Automaton) (word.Lasso, bool, error) {
	return IntersectWitnessCtx(context.Background(), autos...)
}

// IntersectWitnessCtx is IntersectWitness with cooperative cancellation
// and resource governance: every materialized product state is charged
// against the context's budget. A non-empty intersection short-circuits
// as soon as some explored region contains an accepting cycle; the empty
// verdict requires exhausting the reachable product, exactly like the
// eager path.
func IntersectWitnessCtx(ctx context.Context, autos ...*Automaton) (word.Lasso, bool, error) {
	return lazyIntersectWitnessCtx(ctx, autos, defaultFirstWave)
}

func lazyIntersectWitnessCtx(ctx context.Context, autos []*Automaton, firstWave int) (word.Lasso, bool, error) {
	ex, err := NewProductExplorer(autos...)
	if err != nil {
		return word.Lasso{}, false, err
	}
	sp := obs.StartIn(ctx, "omega.emptiness.lazy").Int("factors", len(autos))
	defer sp.End()
	cntEmptinessChecks.Inc()
	waves := 0
	defer func() {
		sp.Int("states_materialized", ex.Materialized()).Int("waves", waves)
	}()
	for limit := firstWave; ; limit *= 2 {
		done, err := ex.ExploreCtx(ctx, limit)
		if err != nil {
			return word.Lasso{}, false, err
		}
		waves++
		view, closed := ex.view()
		st := view.streett(view.pairs)
		w, found, err := view.acceptingLasso(ctx, &st, closed, closed)
		if found && !done {
			cntLazyEarlyExits.Inc()
			sp.Bool("early_exit", true)
		}
		if found || done || err != nil {
			return w, found, err
		}
	}
}
