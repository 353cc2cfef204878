package omega

import (
	"context"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/fault"
	"repro/internal/obs"
)

var (
	cntLazyStates     = obs.NewCounter("omega.lazy.states_materialized")
	cntLazyEarlyExits = obs.NewCounter("omega.lazy.early_exits")
	maxLazyStates     = obs.NewGauge("omega.lazy.max_states")
)

// defaultFirstWave is the number of product states the first exploration
// wave of the lazy decision procedures materializes; each following wave
// doubles the bound. Small enough that a shallow counterexample pays for
// a few dozen states instead of the whole product, large enough that the
// per-wave SCC searches amortize (geometric waves bound the total search
// work by ~2× one full-product search).
const defaultFirstWave = 64

// ProductExplorer generates the synchronous product of one or more
// Streett automata state by state, on demand, instead of materializing
// the whole reachable product up front the way IntersectCtx does. It is
// the successor-function abstraction behind the lazy decision procedures
// (ContainsCtx, EquivalentCtx, IntersectWitnessCtx): they interleave
// exploration waves with SCC refinement on the explored region and stop
// the moment a witness appears, so a counterexample reachable in a few
// steps never pays for a product that is orders of magnitude larger.
//
// States move through two phases. A state is *discovered* when some
// materialized transition targets it (it has an index and lifted
// acceptance bits, but no successor row yet) and *materialized* (closed)
// when its successor row has been computed. States close in discovery
// order, so the closed region is always a BFS-reachable prefix: every
// closed state is reachable from the start through closed states.
// Each closed state charges one state against the context budget —
// exactly the accounting of the eager product — and hits the
// fault.SiteOmegaLazy injection site.
//
// The acceptance lists of all factors are lifted to the product as they
// are discovered (Streett conditions are conjunctive, so the product
// needs no further machinery); PairRange locates the pairs of one
// factor inside the lifted list. An explorer is not safe for concurrent
// use; concurrent queries each build their own.
type ProductExplorer struct {
	autos []*Automaton
	alpha *alphabet.Alphabet
	nf    int // number of factors
	k     int // alphabet size

	index  *autkern.TupleInterner
	tuples []int32 // tuple of state i at [i*nf : (i+1)*nf]
	trans  [][]int // successor rows; nil until the state is closed
	closed int     // states 0..closed-1 have materialized rows

	pairs      []Pair // lifted acceptance, grown per discovered state
	pairOffset []int  // pairOffset[f] = first lifted pair of factor f
}

// errAlphabetMismatch builds the diagnostic for a product, containment
// or equivalence query over two different alphabets. Both alphabets are
// named so the caller can see which symbol sets disagree.
func errAlphabetMismatch(op string, a, b *alphabet.Alphabet) error {
	return fmt.Errorf("omega: %s over different alphabets %v and %v", op, a, b)
}

// NewProductExplorer validates the factors (at least one, all over one
// alphabet) and discovers the joint start state. Nothing is materialized
// yet; ExploreCtx drives the construction.
func NewProductExplorer(autos ...*Automaton) (*ProductExplorer, error) {
	if len(autos) == 0 {
		return nil, fmt.Errorf("omega: product explorer needs at least one automaton")
	}
	alpha := autos[0].alpha
	for _, a := range autos[1:] {
		if !a.alpha.Equal(alpha) {
			return nil, errAlphabetMismatch("product", alpha, a.alpha)
		}
	}
	e := &ProductExplorer{
		autos: autos,
		alpha: alpha,
		nf:    len(autos),
		k:     alpha.Size(),
		index: autkern.NewTupleInterner(),
	}
	npairs := 0
	for _, a := range autos {
		e.pairOffset = append(e.pairOffset, npairs)
		npairs += len(a.pairs)
	}
	e.pairOffset = append(e.pairOffset, npairs)
	e.pairs = make([]Pair, npairs)
	start := make([]int32, e.nf)
	for f, a := range autos {
		start[f] = int32(a.kern.Start())
	}
	e.discover(start)
	return e, nil
}

// discover interns a product tuple, lifting every factor's acceptance
// bits onto the new state, and returns its index.
func (e *ProductExplorer) discover(t []int32) int {
	i, fresh := e.index.Intern32(t)
	if !fresh {
		return i
	}
	e.tuples = append(e.tuples, t...)
	e.trans = append(e.trans, nil)
	for f, a := range e.autos {
		q := int(t[f])
		for j := range a.pairs {
			lp := &e.pairs[e.pairOffset[f]+j]
			lp.R = append(lp.R, a.pairs[j].R[q])
			lp.P = append(lp.P, a.pairs[j].P[q])
		}
	}
	return i
}

// ExploreCtx materializes product states in discovery order until either
// the whole reachable product is closed (done=true) or at least limit
// states are closed. Progress is monotone: calling with a limit at or
// below the closed count is a no-op. Each state hits the fault site,
// polls the context and charges one state to the budget before its
// successor row is computed.
func (e *ProductExplorer) ExploreCtx(ctx context.Context, limit int) (done bool, err error) {
	before := e.closed
	defer func() { e.note(before) }()
	cur := make([]int32, e.nf)
	next := make([]int32, e.nf)
	for e.closed < len(e.trans) && e.closed < limit {
		if err := fault.Hit(fault.SiteOmegaLazy); err != nil {
			return false, err
		}
		if err := budget.Poll(ctx, 0); err != nil {
			return false, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return false, err
		}
		q := e.closed
		// Copy the tuple out: discover may grow (and reallocate) e.tuples.
		copy(cur, e.tuples[q*e.nf:(q+1)*e.nf])
		row := make([]int, e.k)
		for s := 0; s < e.k; s++ {
			for f, a := range e.autos {
				next[f] = int32(a.kern.Step(int(cur[f]), s))
			}
			row[s] = e.discover(next)
		}
		e.trans[q] = row
		e.closed++
	}
	return e.closed == len(e.trans), nil
}

// note records the states materialized since the closed count was
// `before` in the lazy-exploration metrics.
func (e *ProductExplorer) note(before int) {
	if d := e.closed - before; d > 0 {
		cntLazyStates.Add(int64(d))
		maxLazyStates.Max(int64(e.closed))
	}
}

// Materialized returns the number of closed states — states whose
// successor rows have been computed and whose cost has been charged.
func (e *ProductExplorer) Materialized() int { return e.closed }

// Discovered returns the number of states interned so far (closed states
// plus the unexplored frontier).
func (e *ProductExplorer) Discovered() int { return len(e.trans) }

// PairRange returns the half-open range [lo, hi) of factor f's lifted
// pairs inside the product's acceptance list.
func (e *ProductExplorer) PairRange(f int) (lo, hi int) {
	return e.pairOffset[f], e.pairOffset[f+1]
}

// StateTuple returns the factor states of product state i.
func (e *ProductExplorer) StateTuple(i int) []int {
	out := make([]int, e.nf)
	for f := range out {
		out[f] = int(e.tuples[i*e.nf+f])
	}
	return out
}

// view returns the explored region as an automaton over every discovered
// state, together with the closed-region membership vector. Closed
// states carry their real successor rows; frontier states carry nil rows
// (no outgoing edges), so any search restricted to the closed region —
// which the membership vector delimits — sees exactly a subgraph of the
// full product and never a fabricated edge. Cycles and paths found in
// that subgraph are therefore genuine cycles and paths of the full
// product, which is what makes early exits sound. The view shares the
// explorer's row and acceptance storage; further exploration writes rows
// the view's slices alias, so a view is only valid until the next
// ExploreCtx call — the lazy procedures build a fresh one per wave.
func (e *ProductExplorer) view() (*Automaton, []bool) {
	n := len(e.trans)
	pairs := make([]Pair, len(e.pairs))
	for i, p := range e.pairs {
		pairs[i] = Pair{R: p.R[:n:n], P: p.P[:n:n]}
	}
	v := &Automaton{
		alpha: e.alpha,
		kern:  autkern.New(e.trans[:n:n], e.k, 0),
		pairs: pairs,
	}
	closed := make([]bool, n)
	for i := 0; i < e.closed; i++ {
		closed[i] = true
	}
	return v, closed
}
