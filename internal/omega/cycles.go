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

// AcceptingCycleWithin returns a strongly connected, cyclic set of states
// J ⊆ allowed with J in the accepting family F (a run with inf = J is
// accepted), or nil if none exists.
func (a *Automaton) AcceptingCycleWithin(allowed []bool) []int {
	var first []int
	_, err := a.AcceptingCycles(context.Background(), allowed, func(set []int) bool {
		first = set
		return true
	})
	mustNotAbort(err)
	return first
}

// RejectingCycleWithin returns a cyclic set B ⊆ allowed with B ∉ F — i.e.
// B ∩ R_i = ∅ and B ⊄ P_i for some pair i — or nil if none exists.
func (a *Automaton) RejectingCycleWithin(allowed []bool) []int {
	var first []int
	_, err := a.RejectingCycles(context.Background(), allowed, func(set []int) bool {
		first = set
		return true
	})
	mustNotAbort(err)
	return first
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
// is accepted) is transition-closed.
func (a *Automaton) CoLiveStates() []bool {
	coLive := make([]bool, a.NumStates())
	for _, comp := range a.kern.SCCs(nil) {
		if !a.IsCyclic(comp) {
			continue
		}
		if rej := a.RejectingCycleWithin(a.StateSet(comp)); rej != nil {
			for _, q := range rej {
				coLive[q] = true
			}
		}
	}
	return a.kern.BackwardClosure(coLive)
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
	return &Automaton{
		alpha:  a.alpha,
		kern:   a.kern.WithStart(q),
		pairs:  a.pairs,
		labels: append([]string(nil), a.labels...),
	}
}
