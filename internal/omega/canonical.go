package omega

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

// This file implements the constructive direction of Proposition 5.1: an
// automaton that *specifies* a κ-property is rewritten into a syntactic
// κ-automaton — the paper's normal forms for automata. Every constructor
// verifies the result against the original with the exact equivalence
// check and returns ErrNotInClass when the property lies outside the
// class (which is how these functions double as semantic deciders).

// ErrNotInClass is returned when a canonicalization is requested for a
// property outside the target class.
var ErrNotInClass = errors.New("omega: property not in the requested class")

// markAcceptingCycleStates returns the set of states that belong to some
// accepting cycle within the allowed region: the union of the accepting
// sets the Streett refinement yields.
func (a *Automaton) markAcceptingCycleStates(allowed []bool) []bool {
	out := make([]bool, a.NumStates())
	_, err := a.AcceptingCycles(context.Background(), allowed, func(set []int) bool {
		for _, q := range set {
			out[q] = true
		}
		return false
	})
	mustNotAbort(err)
	return out
}

// CoDeadStates returns the states from which every infinite word is
// accepted (the complement of CoLiveStates).
func (a *Automaton) CoDeadStates() []bool {
	coLive := a.CoLiveStates()
	out := make([]bool, len(coLive))
	for q, l := range coLive {
		out[q] = !l
	}
	return out
}

// Interior returns an automaton for the topological interior of the
// property — the largest open (guarantee) subset: the words some prefix
// of which forces acceptance of every extension. Works for any number of
// pairs: a run is accepted iff it enters the co-dead region.
func (a *Automaton) Interior() *Automaton {
	coDead := a.CoDeadStates()
	n := a.NumStates()
	k := a.alpha.Size()
	top := n
	trans := make([][]int, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			next := a.kern.Step(q, s)
			if coDead[next] {
				row[s] = top
			} else {
				row[s] = next
			}
		}
		trans[q] = row
	}
	topRow := make([]int, k)
	for s := range topRow {
		topRow[s] = top
	}
	trans[top] = topRow
	pair := Pair{R: make([]bool, n+1), P: make([]bool, n+1)}
	pair.R[top] = true
	pair.P[top] = true
	start := a.kern.Start()
	if coDead[start] {
		start = top
	}
	out := MustNew(a.alpha, trans, start, []Pair{pair})
	return out.Trim()
}

// ToSafetyAutomaton rewrites the automaton into the paper's syntactic
// safety form (a single pair (∅, G) whose good region cannot be
// re-entered) — possible exactly when the property is a safety property.
func (a *Automaton) ToSafetyAutomaton() (*Automaton, error) {
	return a.ToSafetyAutomatonCtx(context.Background())
}

// ToSafetyAutomatonCtx is ToSafetyAutomaton with cooperative cancellation
// threaded into the verifying equivalence check.
func (a *Automaton) ToSafetyAutomatonCtx(ctx context.Context) (*Automaton, error) {
	sp := obs.StartIn(ctx, "omega.canonical.safety").Int("in_states", a.NumStates())
	defer sp.End()
	candidate := a.SafetyClosure().Trim()
	sp.Int("states", candidate.NumStates())
	eq, ce, err := a.EquivalentCtx(ctx, candidate)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: safety (differs on %v)", ErrNotInClass, ce)
	}
	return candidate, nil
}

// ToGuaranteeAutomaton rewrites the automaton into the syntactic
// guarantee form (an absorbing accepting region entered at most once) —
// possible exactly when the property is a guarantee property, in which
// case the property equals its own interior.
func (a *Automaton) ToGuaranteeAutomaton() (*Automaton, error) {
	return a.ToGuaranteeAutomatonCtx(context.Background())
}

// ToGuaranteeAutomatonCtx is ToGuaranteeAutomaton with cooperative
// cancellation threaded into the verifying equivalence check.
func (a *Automaton) ToGuaranteeAutomatonCtx(ctx context.Context) (*Automaton, error) {
	sp := obs.StartIn(ctx, "omega.canonical.guarantee").Int("in_states", a.NumStates())
	defer sp.End()
	candidate := a.Interior()
	sp.Int("states", candidate.NumStates())
	eq, ce, err := a.EquivalentCtx(ctx, candidate)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: guarantee (differs on %v)", ErrNotInClass, ce)
	}
	return candidate, nil
}

// ToRecurrenceAutomaton rewrites the automaton into the paper's
// recurrence normal form: a single pair (R, ∅). This is the §5
// construction: each pair's recurrent set is enlarged with the states of
// its "persistent cycles" (accepting cycles avoiding R_i), turning every
// pair into a pure Büchi condition, and the conjunction of Büchi
// conditions is merged with the cyclic-counter product. Succeeds exactly
// when the property is a recurrence property.
func (a *Automaton) ToRecurrenceAutomaton() (*Automaton, error) {
	return a.ToRecurrenceAutomatonCtx(context.Background())
}

// ToRecurrenceAutomatonCtx is ToRecurrenceAutomaton with cooperative
// cancellation threaded into the verifying equivalence check.
func (a *Automaton) ToRecurrenceAutomatonCtx(ctx context.Context) (*Automaton, error) {
	sp := obs.StartIn(ctx, "omega.canonical.recurrence").Int("in_states", a.NumStates()).Int("in_pairs", len(a.pairs))
	defer sp.End()
	n := a.NumStates()
	// Per pair: R_i' = R_i ∪ {states of accepting cycles avoiding R_i}.
	buchiSets := make([][]bool, len(a.pairs))
	for i, p := range a.pairs {
		avoidR := make([]bool, n)
		for q := 0; q < n; q++ {
			avoidR[q] = !p.R[q]
		}
		persistent := a.markAcceptingCycleStates(avoidR)
		set := make([]bool, n)
		for q := 0; q < n; q++ {
			set[q] = p.R[q] || persistent[q]
		}
		buchiSets[i] = set
	}
	merged, err := a.mergeBuchi(ctx, buchiSets)
	if err != nil {
		return nil, err
	}
	sp.Int("states", merged.NumStates())
	eq, ce, err := a.EquivalentCtx(ctx, merged)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: recurrence (differs on %v)", ErrNotInClass, ce)
	}
	return merged, nil
}

// mergeBuchi builds a single-pair recurrence automaton for the
// conjunction ⋀ᵢ "inf ∩ setᵢ ≠ ∅" on this automaton's transition
// structure: the classical cyclic-counter (generalized Büchi → Büchi)
// product. The counter waits for set_j; when the new state is in set_j it
// advances (wrapping flags acceptance). Every counter-product state is
// charged against the context's budget.
func (a *Automaton) mergeBuchi(ctx context.Context, sets [][]bool) (*Automaton, error) {
	kSyms := a.alpha.Size()
	m := len(sets)
	if m == 0 {
		return Universal(a.alpha), nil
	}
	// Counter-product states (q, j, flag) are interned as the pair
	// (q, j<<1|flag), riding the kernel interner's uint64 fast path.
	in := autkern.NewPairInterner()
	in.Intern(a.kern.Start(), 0)
	var trans [][]int
	for i := 0; i < in.Len(); i++ {
		if err := fault.Hit(fault.SiteOmegaMerge); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 0); err != nil {
			return nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return nil, err
		}
		q, packed := in.Pair(i)
		j := packed >> 1
		row := make([]int, kSyms)
		for sym := 0; sym < kSyms; sym++ {
			nq := a.kern.Step(q, sym)
			nj := j
			flag := 0
			// Advance through every satisfied awaited set (possibly
			// several in a row), flagging on wrap-around.
			for steps := 0; steps < m && sets[nj][nq]; steps++ {
				nj++
				if nj == m {
					nj = 0
					flag = 1
				}
			}
			row[sym] = in.Intern(nq, nj<<1|flag)
		}
		trans = append(trans, row)
	}
	nStates := in.Len()
	pair := Pair{R: make([]bool, nStates), P: make([]bool, nStates)}
	for i := 0; i < nStates; i++ {
		_, packed := in.Pair(i)
		pair.R[i] = packed&1 != 0
	}
	return New(a.alpha, trans, 0, []Pair{pair})
}

// ToPersistenceAutomaton rewrites the automaton into the persistence
// normal form (a single pair (∅, P)): runs are accepted iff they
// eventually stay within the states that belong to accepting cycles.
// Succeeds exactly when the property is a persistence property.
func (a *Automaton) ToPersistenceAutomaton() (*Automaton, error) {
	return a.ToPersistenceAutomatonCtx(context.Background())
}

// ToPersistenceAutomatonCtx is ToPersistenceAutomaton with cooperative
// cancellation threaded into the verifying equivalence check.
func (a *Automaton) ToPersistenceAutomatonCtx(ctx context.Context) (*Automaton, error) {
	sp := obs.StartIn(ctx, "omega.canonical.persistence").Int("in_states", a.NumStates())
	defer sp.End()
	n := a.NumStates()
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	d := a.markAcceptingCycleStates(all)
	pair := Pair{R: make([]bool, n), P: d}
	candidate := a.sharedWithPairs([]Pair{pair}).Trim()
	eq, ce, err := a.EquivalentCtx(ctx, candidate)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: persistence (differs on %v)", ErrNotInClass, ce)
	}
	return candidate, nil
}

// IsSafetyAutomaton reports whether the automaton has the paper's
// syntactic safety shape: with G = ⋂(R_i ∪ P_i) and B = Q − G, no
// transition leads from B to G.
func (a *Automaton) IsSafetyAutomaton() bool {
	g := a.goodStates()
	for q := 0; q < a.NumStates(); q++ {
		if g[q] {
			continue
		}
		for _, next := range a.kern.Row(q) {
			if g[next] {
				return false
			}
		}
	}
	return true
}

// IsGuaranteeAutomaton reports the dual shape: no transition from G to B.
func (a *Automaton) IsGuaranteeAutomaton() bool {
	g := a.goodStates()
	for q := 0; q < a.NumStates(); q++ {
		if !g[q] {
			continue
		}
		for _, next := range a.kern.Row(q) {
			if !g[next] {
				return false
			}
		}
	}
	return true
}

// IsRecurrenceAutomaton reports whether every pair has P = ∅ (the paper's
// recurrence shape, pure Büchi conditions).
func (a *Automaton) IsRecurrenceAutomaton() bool {
	for _, p := range a.pairs {
		for _, in := range p.P {
			if in {
				return false
			}
		}
	}
	return true
}

// IsPersistenceAutomaton reports whether every pair has R = ∅ (the
// persistence / co-Büchi shape).
func (a *Automaton) IsPersistenceAutomaton() bool {
	for _, p := range a.pairs {
		for _, in := range p.R {
			if in {
				return false
			}
		}
	}
	return true
}

// goodStates returns G = ⋂ᵢ (R_i ∪ P_i), the paper's "good" state set.
func (a *Automaton) goodStates() []bool {
	n := a.NumStates()
	g := make([]bool, n)
	for q := 0; q < n; q++ {
		g[q] = true
		for _, p := range a.pairs {
			if !p.R[q] && !p.P[q] {
				g[q] = false
				break
			}
		}
	}
	return g
}
