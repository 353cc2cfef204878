package dfa

import (
	"context"

	"repro/internal/autkern"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Minimize returns the canonical minimal DFA for L(d) (restricted to
// reachable states), using Hopcroft's partition refinement
// (autkern.Kernel.Quotient) from the accepting/rejecting coloring.
// The result is complete and deterministic like its input; states are
// numbered in BFS order from the start state so that equal languages yield
// structurally identical automata. A DFA the minimizer returned is
// already minimal and canonical, and comes back unchanged.
func (d *DFA) Minimize() *DFA {
	m, err := d.MinimizeCtx(context.Background())
	if err != nil {
		// Only reachable under a context budget or test-only fault
		// injection; the background context carries neither.
		panic(err)
	}
	return m
}

// MinimizeCtx is Minimize with resource governance: each splitter pass of
// the refinement hits the dfa.minimize fault site and is charged as one
// step against the context's budget, so minimizing a huge automaton
// under a step cap aborts with budget.ErrBudgetExceeded. A DFA the
// minimizer returned is handed back as is, with no splitter pass.
func (d *DFA) MinimizeCtx(ctx context.Context) (*DFA, error) {
	if d.minimal {
		return d, nil
	}
	sp := obs.StartIn(ctx, "dfa.minimize").Int("in_states", d.NumStates())
	defer sp.End()
	// Accepting states take color 0 and rejecting ones 1, so the
	// accepting states form the first initial block.
	n := d.NumStates()
	color := make([]int32, n)
	for q := 0; q < n; q++ {
		if !d.accept[q] {
			color[q] = 1
		}
	}
	rows, rep, err := d.kern.Quotient(ctx, color, func() error { return fault.Hit(fault.SiteDFAMinimize) })
	if err != nil {
		return nil, err
	}
	accept := make([]bool, len(rep))
	for i, q := range rep {
		accept[i] = d.accept[q]
	}
	sp.Int("states", len(rows))
	return &DFA{alpha: d.alpha, kern: autkern.New(rows, d.alpha.Size(), 0), accept: accept, minimal: true}, nil
}
