package omega

import (
	"context"

	"repro/internal/autkern"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

var cntEmptinessChecks = obs.NewCounter("omega.emptiness.checks")

// streett states the pairs, and the extra pairs, over a's transition
// graph for the kernel's refinement. Each component it examines passes
// the omega.emptiness fault site.
func (a *Automaton) streett(pairs []Pair, extra ...autkern.Pair) autkern.Streett {
	lifted := make([]autkern.Pair, 0, len(pairs)+len(extra))
	for _, p := range pairs {
		lifted = append(lifted, autkern.Pair{R: p.R, P: p.P, Kind: autkern.NoKind})
	}
	return autkern.Streett{
		G:       autkern.Graph{Succ: a.kern.Rows()},
		Pairs:   append(lifted, extra...),
		Examine: func() error { return fault.Hit(fault.SiteOmegaEmptiness) },
	}
}

// lasso is the kernel's loop extractor, a variable so tests can make it
// fail.
var lasso = (*autkern.Streett).Lasso

// acceptingLasso decomposes the allowed region (nil: every state; the
// pass polls ctx and charges one budget step) and returns a lasso word
// through the first accepting set st finds in it: its run reaches the set
// through states of mask (nil: every state), then realizes inf = set. ok
// is false when the region holds no accepting set; a lasso that cannot
// be extracted is an error.
func (a *Automaton) acceptingLasso(ctx context.Context, st *autkern.Streett, allowed, mask []bool) (word.Lasso, bool, error) {
	comps, err := a.kern.SCCsCtx(ctx, allowed)
	if err != nil {
		return word.Lasso{}, false, err
	}
	var set []int
	_, err = st.Refine(ctx, comps, func(s, _ []int) bool {
		set = s
		return true
	})
	if err != nil || set == nil {
		return word.Lasso{}, false, err
	}
	prefix, loop, err := lasso(st, []int{a.kern.Start()}, mask, set, nil)
	if err != nil {
		return word.Lasso{}, false, err
	}
	symbols := func(path []autkern.Edge) word.Finite {
		w := make(word.Finite, len(path))
		for i, e := range path {
			w[i] = a.alpha.Symbol(e.I)
		}
		return w
	}
	return word.MustLasso(symbols(prefix), symbols(loop)), true, nil
}

// IsEmpty reports whether the automaton accepts no infinite word.
func (a *Automaton) IsEmpty() bool {
	_, ok := a.WitnessLasso()
	return !ok
}

// WitnessLasso returns a lasso word accepted by the automaton, or ok=false
// if the language is empty. It is WitnessLassoCtx on a background
// context, where only fault injection can abort the search.
func (a *Automaton) WitnessLasso() (word.Lasso, bool) {
	w, ok, err := a.WitnessLassoCtx(context.Background())
	mustNotAbort(err)
	return w, ok
}

// WitnessLassoCtx is the Streett emptiness check with cooperative
// cancellation and resource governance: the refinement polls the context
// and charges the budget per SCC pass and per component, so an abort
// returns ctx.Err() or budget.ErrBudgetExceeded instead of a verdict.
// The witness realizes inf(r) equal to an accepting strongly connected
// set; a witness that cannot be extracted is an error, never "empty".
func (a *Automaton) WitnessLassoCtx(ctx context.Context) (word.Lasso, bool, error) {
	sp := obs.StartIn(ctx, "omega.emptiness").Int("states", a.NumStates()).Int("pairs", len(a.pairs))
	defer sp.End()
	cntEmptinessChecks.Inc()
	st := a.streett(a.pairs)
	return a.acceptingLasso(ctx, &st, a.kern.Reachable(), nil)
}

// LiveStates returns, per state, whether the automaton accepts some word
// from that state. Dead states are closed under transitions: every
// successor of a dead state is dead. It is LiveStatesCtx on a background
// context, where only fault injection can abort the search. The slice is
// cached and shared: treat it as read-only.
func (a *Automaton) LiveStates() []bool {
	live, err := a.LiveStatesCtx(context.Background())
	mustNotAbort(err)
	return live
}

// LiveStatesCtx is LiveStates under the request's context: the
// decomposition and each component the refinement examines poll ctx and
// charge a budget step, so an abort returns the error, never a partial
// vector. The vector is computed at most once per automaton, published
// only by a search that did not abort; the slice is shared, read-only.
func (a *Automaton) LiveStatesCtx(ctx context.Context) ([]bool, error) {
	if live := a.live.Load(); live != nil {
		return *live, nil
	}
	sp := obs.StartIn(ctx, "omega.livestates").Int("states", a.NumStates())
	defer sp.End()
	live := make([]bool, a.NumStates())
	// Every state of the first accepting set inside a component is live,
	// and so, after propagating backwards over the kernel's cached
	// reverse adjacency, is every state of that component. The full SCC
	// decomposition is shared with every other analysis of this kernel.
	st := a.streett(a.pairs)
	mark := func(set, _ []int) bool {
		for _, q := range set {
			live[q] = true
		}
		return true
	}
	comps, err := a.kern.SCCsCtx(ctx, nil)
	if err != nil {
		return nil, err
	}
	for i := range comps {
		if _, err := st.Refine(ctx, comps[i:i+1], mark); err != nil {
			return nil, err
		}
	}
	live = a.kern.BackwardClosure(live)
	a.live.CompareAndSwap(nil, &live)
	return *a.live.Load(), nil
}
