package omega

import (
	"context"
	"fmt"
	"math"

	"repro/internal/autkern"
	"repro/internal/fault"
	"repro/internal/obs"
)

var (
	cntProductStates = obs.NewCounter("omega.product.states")
	maxProductStates = obs.NewGauge("omega.product.max_states")
)

// Intersect returns the synchronous product automaton, accepting
// L(a) ∩ L(b): IntersectAll of the two.
func (a *Automaton) Intersect(b *Automaton) (*Automaton, error) {
	return IntersectAllCtx(context.Background(), a, b)
}

// IntersectCtx is Intersect under the context's budget (see
// IntersectAllCtx).
func (a *Automaton) IntersectCtx(ctx context.Context, b *Automaton) (*Automaton, error) {
	return IntersectAllCtx(ctx, a, b)
}

// IntersectAll returns the synchronous product automaton of a non-empty
// list of automata, accepting the intersection of their languages: the
// Streett lists of the factors are lifted to the product in factor order
// (Streett conditions are conjunctive, so the product needs no further
// machinery). Only reachable product states are materialized, numbered
// in BFS order; a single automaton is returned as it is.
func IntersectAll(autos ...*Automaton) (*Automaton, error) {
	return IntersectAllCtx(context.Background(), autos...)
}

// IntersectAllCtx is IntersectAll with resource governance. It is the
// lazy explorer's product explored to the end in one call — however many
// factors there are, no intermediate product is built — and every
// product state hits the omega.product fault site and charges one state
// against the context's budget, so a product blowup aborts with
// budget.ErrBudgetExceeded instead of exhausting memory.
func IntersectAllCtx(ctx context.Context, autos ...*Automaton) (*Automaton, error) {
	if len(autos) == 1 {
		return autos[0], nil
	}
	e, err := NewProductExplorer(autos...)
	if err != nil {
		return nil, err
	}
	sp := obs.StartIn(ctx, "omega.product").
		Int("factors", len(autos)).Int("alphabet", e.alpha.Size())
	defer sp.End()
	hit := func() error { return fault.Hit(fault.SiteOmegaProduct) }
	if _, err := e.prod.Explore(ctx, math.MaxInt, hit); err != nil {
		return nil, err
	}
	e.lift()
	n := e.prod.Len()
	sp.Int("states", n).Int("pairs", len(e.pairs))
	cntProductStates.Add(int64(n))
	maxProductStates.Max(int64(n))
	return &Automaton{alpha: e.alpha, kern: autkern.New(e.prod.Rows(), e.alpha.Size(), 0), pairs: e.pairs}, nil
}

// ComplementSinglePair complements a single-pair Streett automaton. The
// complement of "inf∩R≠∅ ∨ inf⊆P" is "inf∩R=∅ ∧ inf⊄P", which is the
// 2-pair Streett condition (∅, Q−R) ∧ (Q−P, Q). General multi-pair
// complementation would need a Rabin detour and is not required by the
// paper's constructions.
func (a *Automaton) ComplementSinglePair() (*Automaton, error) {
	if len(a.pairs) != 1 {
		return nil, fmt.Errorf("omega: ComplementSinglePair on %d pairs", len(a.pairs))
	}
	n := a.NumStates()
	p := a.pairs[0]
	notR := make([]bool, n)
	notP := make([]bool, n)
	none := make([]bool, n)
	for q := 0; q < n; q++ {
		notR[q] = !p.R[q]
		notP[q] = !p.P[q]
	}
	pairs := []Pair{
		{R: none, P: notR}, // inf ⊆ Q−R, i.e. inf∩R=∅
		{R: notP, P: none}, // inf ∩ (Q−P) ≠ ∅, i.e. inf ⊄ P
	}
	return a.withPairsShared(pairs)
}

// WithPairs returns an automaton over the same transition structure
// (sharing the kernel and its cached analyses) with a different
// acceptance list.
func (a *Automaton) WithPairs(pairs []Pair) (*Automaton, error) {
	return a.withPairsShared(pairs)
}

// SafetyClosure returns an automaton for A(Pref(Π)), the paper's safety
// closure (topologically, the closure cl(Π)): a run is accepted iff it
// never enters a dead state. The result is a safety automaton (one pair
// with R = ∅ and P = the live states).
func (a *Automaton) SafetyClosure() *Automaton {
	live := a.LiveStates()
	none := make([]bool, a.NumStates())
	out, err := a.withPairsShared([]Pair{{R: none, P: live}})
	if err != nil {
		panic(err)
	}
	return out
}

// LivenessExtension returns an automaton for the paper's liveness
// extension 𝓛(Π) = Π ∪ E(¬Pref(Π)): every run that enters a dead state is
// additionally accepted. Since the dead region is transition-closed, this
// is achieved by adding it to every P-set.
func (a *Automaton) LivenessExtension() *Automaton {
	live := a.LiveStates()
	pairs := a.Pairs()
	for i := range pairs {
		for q := range pairs[i].P {
			if !live[q] {
				pairs[i].P[q] = true
			}
		}
	}
	out, err := a.withPairsShared(pairs)
	if err != nil {
		panic(err)
	}
	return out
}

// IsLivenessProperty reports whether the automaton's language is a
// liveness property: Pref(Π) = Σ⁺, i.e. every reachable state is live.
func (a *Automaton) IsLivenessProperty() bool {
	live := a.LiveStates()
	for q, reach := range a.kern.Reachable() {
		if reach && !live[q] {
			return false
		}
	}
	return true
}
