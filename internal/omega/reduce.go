package omega

import (
	"context"

	"repro/internal/autkern"
	"repro/internal/obs"
)

// Reduce returns a language-equivalent automaton obtained by merging
// bisimilar states: states with the same acceptance "color" (their
// membership vector across all R/P sets) and the same successor classes
// on every symbol. For deterministic automata this is the coarsest
// stable refinement of the coloring (autkern.Kernel.Quotient); runs map
// position-wise onto the quotient and a run's infinity set maps onto its
// class image, whose Streett verdict is identical because colors are
// class-invariant. The quotient holds the reachable states only,
// numbered in BFS order from the start class.
//
// Reduce never changes the number of pairs; combine with the canonical
// constructions (ToRecurrenceAutomaton etc.) for stronger normalization.
func (a *Automaton) Reduce() *Automaton {
	sp := obs.Start("omega.reduce").Int("in_states", a.NumStates())
	defer sp.End()
	// Color each reachable state by its membership byte per pair: bit 0
	// for R, bit 1 for P.
	n := a.NumStates()
	reach := a.kern.Reachable()
	color := make([]int32, n)
	colors := autkern.NewKeyInterner()
	key := make([]byte, len(a.pairs))
	for q := 0; q < n; q++ {
		if !reach[q] {
			continue
		}
		for i, p := range a.pairs {
			key[i] = 0
			if p.R[q] {
				key[i] |= 1
			}
			if p.P[q] {
				key[i] |= 2
			}
		}
		c, _ := colors.Intern(key)
		color[q] = int32(c)
	}
	rows, rep, err := a.kern.Quotient(context.Background(), color, nil)
	if err != nil {
		// The background context carries no budget and no hook is set.
		panic(err)
	}
	pairs := make([]Pair, len(a.pairs))
	for i, p := range a.pairs {
		pairs[i] = Pair{R: make([]bool, len(rep)), P: make([]bool, len(rep))}
		for j, q := range rep {
			pairs[i].R[j], pairs[i].P[j] = p.R[q], p.P[q]
		}
	}
	sp.Int("states", len(rows)).Int("pairs", len(pairs))
	return &Automaton{alpha: a.alpha, kern: autkern.New(rows, a.alpha.Size(), 0), pairs: pairs}
}
