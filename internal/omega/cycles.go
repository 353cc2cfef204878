package omega

import (
	"context"
	"slices"

	"repro/internal/autkern"
	"repro/internal/budget"
)

// AcceptingCycles hands found the accepting sets the Streett refinement
// yields in the allowed region (nil: every state) — strongly connected
// J ∈ F, every accepting cycle of the region inside one of them — until
// found returns true; it then reports true. The decomposition of the
// region and each component examined poll ctx and charge a budget step.
func (a *Automaton) AcceptingCycles(ctx context.Context, allowed []bool, found func(set []int) bool) (bool, error) {
	comps, err := a.kern.SCCsCtx(ctx, allowed)
	if err != nil {
		return false, err
	}
	st := a.streett(a.pairs)
	return st.Refine(ctx, comps, func(set, _ []int) bool { return found(set) })
}

// mustNotAbort panics on the error of a search run without a context.
// Only fault injection, or a lasso the extractor cannot build, ends one
// with an error, and neither may masquerade as a verdict ("no cycle",
// "empty", "dead"); the engine's recovery boundary turns the panic into
// an *InternalError.
func mustNotAbort(err error) {
	if err != nil {
		panic(err)
	}
}

// RejectingCycles hands found, pair by pair, every cyclic component of
// allowed ∖ R_i (nil allowed: every state) that leaves P_i — a cyclic set
// B ∉ F, and every rejecting cycle breaking pair i inside allowed lies
// inside one of them — until found returns true; it then reports true.
// Each pair and each component polls ctx and charges one budget step.
func (a *Automaton) RejectingCycles(ctx context.Context, allowed []bool, found func(set []int) bool) (bool, error) {
	n := a.NumStates()
	for _, p := range a.pairs {
		if err := budget.Poll(ctx, 1); err != nil {
			return false, err
		}
		restricted := make([]bool, n)
		any := false
		for q := 0; q < n; q++ {
			restricted[q] = (allowed == nil || allowed[q]) && !p.R[q]
			any = any || restricted[q]
		}
		if !any {
			continue
		}
		for _, comp := range a.SCCs(restricted) {
			if err := budget.Poll(ctx, 1); err != nil {
				return false, err
			}
			leaves := slices.ContainsFunc(comp, func(q int) bool { return !p.P[q] })
			if a.IsCyclic(comp) && leaves && found(comp) {
				return true, nil
			}
		}
	}
	return false, nil
}

// CoLiveStates returns, per state, whether some infinite word is rejected
// when the run starts there — the liveness notion of the complement
// language. Like dead states, the "co-dead" region (from which everything
// is accepted) is transition-closed. It is CoLiveStatesCtx on a
// background context, where only fault injection can abort the search.
// The slice is cached and shared: treat it as read-only.
func (a *Automaton) CoLiveStates() []bool {
	coLive, err := a.CoLiveStatesCtx(context.Background())
	mustNotAbort(err)
	return coLive
}

// CoLiveStatesCtx is CoLiveStates under the request's context: the
// decomposition, each pair and each component examined poll ctx and
// charge a budget step, so an abort returns the error, never a partial
// vector. The vector is computed at most once per automaton, published
// only by a search that did not abort; the slice is shared, read-only.
func (a *Automaton) CoLiveStatesCtx(ctx context.Context) ([]bool, error) {
	if coLive := a.coLive.Load(); coLive != nil {
		return *coLive, nil
	}
	coLive := make([]bool, a.NumStates())
	comps, err := a.kern.SCCsCtx(ctx, nil)
	if err != nil {
		return nil, err
	}
	mark := func(set []int) bool {
		for _, q := range set {
			coLive[q] = true
		}
		return true
	}
	for _, comp := range comps {
		if !a.IsCyclic(comp) {
			continue
		}
		if _, err := a.RejectingCycles(ctx, a.StateSet(comp), mark); err != nil {
			return nil, err
		}
	}
	coLive = a.kern.BackwardClosure(coLive)
	a.coLive.CompareAndSwap(nil, &coLive)
	return *a.coLive.Load(), nil
}

// BrokenPairs returns the indices of the Streett pairs violated by a run
// with infinity set exactly `set`.
func (a *Automaton) BrokenPairs(set []int) []int {
	var out []int
	for i, p := range a.pairs {
		meetsR, inP := false, true
		for _, q := range set {
			if p.R[q] {
				meetsR = true
			}
			if !p.P[q] {
				inP = false
			}
		}
		if !meetsR && !inP {
			out = append(out, i)
		}
	}
	return out
}

// PairVectors returns (read-only) views of pair i's R and P vectors.
func (a *Automaton) PairVectors(i int) (r, p []bool) { return a.pairs[i].R, a.pairs[i].P }

// StateSet converts a state slice into a membership vector sized to the
// automaton.
func (a *Automaton) StateSet(set []int) []bool { return autkern.Members(a.NumStates(), set) }

// Successors returns the successor states of q, one per alphabet symbol
// (duplicates possible). The returned slice is a copy.
func (a *Automaton) Successors(q int) []int {
	return append([]int(nil), a.kern.Row(q)...)
}

// WithStart returns an automaton with a different initial state, sharing
// this automaton's rows and start-independent cached analyses (reverse
// adjacency, full SCC decomposition).
func (a *Automaton) WithStart(q int) *Automaton {
	return &Automaton{alpha: a.alpha, kern: a.kern.WithStart(q), pairs: a.pairs}
}
