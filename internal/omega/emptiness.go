package omega

import (
	"context"

	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

var cntEmptinessChecks = obs.NewCounter("omega.emptiness.checks")

// findAcceptingSCC implements the classical Streett emptiness refinement:
// it returns a cyclic state set J, contained in the allowed region, such
// that J ∈ F and a run can realize inf = J; or nil if none exists.
func (a *Automaton) findAcceptingSCC(allowed []bool) []int {
	res, err := a.findAcceptingSCCCtx(context.Background(), allowed)
	if err != nil {
		// Only reachable under budget exhaustion or fault injection,
		// neither of which applies to a background context in production;
		// swallowing the error here would corrupt the verdict (a "no
		// accepting SCC" answer that is really an abort). The engine's
		// recovery boundary converts this into an *InternalError.
		panic(err)
	}
	return res
}

// findAcceptingSCCCtx is findAcceptingSCC with cooperative cancellation
// and resource governance: the context is polled and one budget step is
// charged per component and per refinement level, so a long-running
// search over a large product aborts promptly with ctx.Err() or
// budget.ErrBudgetExceeded.
func (a *Automaton) findAcceptingSCCCtx(ctx context.Context, allowed []bool) ([]int, error) {
	// SCCsCtx charges the one budget step for this pass (and polls the
	// context periodically while visiting nodes).
	comps, err := a.kern.SCCsCtx(ctx, allowed)
	if err != nil {
		return nil, err
	}
	for _, comp := range comps {
		if err := fault.Hit(fault.SiteOmegaEmptiness); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 1); err != nil {
			return nil, err
		}
		if !a.IsCyclic(comp) {
			continue
		}
		res, err := a.refineSCCCtx(ctx, comp)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}
	return nil, nil
}

// refineSCC checks one strongly connected, cyclic component: if it
// violates some pairs, it restricts to the intersection of their P-sets
// and recurses.
func (a *Automaton) refineSCC(comp []int) []int {
	res, err := a.refineSCCCtx(context.Background(), comp)
	if err != nil {
		// See findAcceptingSCC: an abort must not masquerade as "not
		// accepting".
		panic(err)
	}
	return res
}

func (a *Automaton) refineSCCCtx(ctx context.Context, comp []int) ([]int, error) {
	var bad []int
	for i, p := range a.pairs {
		meetsR, inP := false, true
		for _, q := range comp {
			if p.R[q] {
				meetsR = true
			}
			if !p.P[q] {
				inP = false
			}
		}
		if !meetsR && !inP {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return comp, nil
	}
	restricted := make([]bool, a.NumStates())
	count := 0
	for _, q := range comp {
		keep := true
		for _, i := range bad {
			if !a.pairs[i].P[q] {
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
		return nil, nil
	}
	return a.findAcceptingSCCCtx(ctx, restricted)
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
	if err != nil {
		// See findAcceptingSCC: an abort must not masquerade as "empty".
		panic(err)
	}
	return w, ok
}

// WitnessLassoCtx is the Streett emptiness check with cooperative
// cancellation and resource governance: the refinement polls the context
// and charges the budget per SCC pass and per component, so an abort
// returns ctx.Err() or budget.ErrBudgetExceeded instead of a verdict.
// The witness realizes inf(r) equal to an accepting strongly connected
// set.
func (a *Automaton) WitnessLassoCtx(ctx context.Context) (word.Lasso, bool, error) {
	sp := obs.StartIn(ctx, "omega.emptiness").Int("states", a.NumStates()).Int("pairs", len(a.pairs))
	defer sp.End()
	cntEmptinessChecks.Inc()
	comp, err := a.findAcceptingSCCCtx(ctx, a.kern.Reachable())
	if err != nil || comp == nil {
		return word.Lasso{}, false, err
	}
	anchor := comp[0]
	prefix, ok := a.pathWithin(a.kern.Start(), anchor, nil)
	if !ok {
		return word.Lasso{}, false, nil
	}
	loop, ok := a.coveringCycle(anchor, comp)
	if !ok {
		return word.Lasso{}, false, nil
	}
	return word.MustLasso(prefix, loop), true, nil
}

// LiveStates returns, per state, whether the automaton accepts some word
// from that state. Dead states are closed under transitions: every
// successor of a dead state is dead.
func (a *Automaton) LiveStates() []bool {
	sp := obs.Start("omega.livestates").Int("states", a.NumStates())
	defer sp.End()
	live := make([]bool, a.NumStates())
	// Every state inside some accepting SCC is live; then propagate
	// backwards over the kernel's cached reverse adjacency: a state with
	// a live successor is live. The full SCC decomposition is shared with
	// every other analysis of this kernel.
	for _, comp := range a.kern.SCCs(nil) {
		if !a.IsCyclic(comp) {
			continue
		}
		if res := a.refineSCC(comp); res != nil {
			for _, q := range res {
				live[q] = true
			}
		}
	}
	return a.kern.BackwardClosure(live)
}
