package omega

import (
	"context"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
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
// Streett automata state by state, on demand. It is the successor-function
// abstraction behind the lazy decision procedures (ContainsCtx,
// EquivalentCtx, IntersectWitnessCtx): they interleave exploration waves
// with SCC refinement on the explored region and stop the moment a
// witness appears, so a counterexample reachable in a few steps never
// pays for a product that is orders of magnitude larger. IntersectAllCtx
// explores it to the end in one call.
//
// The product itself is the kernel's (autkern.Product): states close in
// discovery order, so the closed region is always a BFS-reachable prefix
// — every closed state is reachable from the start through closed
// states. Each closed state hits the fault.SiteOmegaLazy injection site
// and charges one state against the context budget, exactly the
// accounting of the eager product.
//
// The acceptance lists of all factors are lifted to the states each wave
// discovers (Streett conditions are conjunctive, so the product needs no
// further machinery); PairRange locates the pairs of one factor inside
// the lifted list. An explorer is not safe for concurrent use;
// concurrent queries each build their own.
type ProductExplorer struct {
	autos []*Automaton
	alpha *alphabet.Alphabet
	prod  *autkern.Product

	pairs      []Pair // lifted acceptance, over the discovered states
	pairOffset []int  // pairOffset[f] = first lifted pair of factor f
	lifted     int    // states 0..lifted-1 carry their acceptance bits
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
	kerns := make([]*autkern.Kernel, len(autos))
	e := &ProductExplorer{autos: autos, alpha: alpha}
	npairs := 0
	for f, a := range autos {
		if !a.alpha.Equal(alpha) {
			return nil, errAlphabetMismatch("product", alpha, a.alpha)
		}
		kerns[f] = a.kern
		e.pairOffset = append(e.pairOffset, npairs)
		npairs += len(a.pairs)
	}
	e.pairOffset = append(e.pairOffset, npairs)
	e.pairs = make([]Pair, npairs)
	e.prod = autkern.NewProduct(kerns...)
	e.lift()
	return e, nil
}

// lift extends every factor's acceptance bits over the states discovered
// since the last call.
func (e *ProductExplorer) lift() {
	for ; e.lifted < e.prod.Len(); e.lifted++ {
		for f, a := range e.autos {
			q := e.prod.State(e.lifted, f)
			for j, p := range a.pairs {
				lp := &e.pairs[e.pairOffset[f]+j]
				lp.R = append(lp.R, p.R[q])
				lp.P = append(lp.P, p.P[q])
			}
		}
	}
}

// ExploreCtx materializes product states in discovery order until either
// the whole reachable product is closed (done=true) or at least limit
// states are closed. Progress is monotone: calling with a limit at or
// below the closed count is a no-op. Each state hits the fault site,
// polls the context and charges one state to the budget before its
// successor row is computed.
func (e *ProductExplorer) ExploreCtx(ctx context.Context, limit int) (done bool, err error) {
	before := e.prod.Closed()
	done, err = e.prod.Explore(ctx, limit, func() error { return fault.Hit(fault.SiteOmegaLazy) })
	e.lift()
	if d := e.prod.Closed() - before; d > 0 {
		cntLazyStates.Add(int64(d))
		maxLazyStates.Max(int64(e.prod.Closed()))
	}
	return done, err
}

// Materialized returns the number of closed states — states whose
// successor rows have been computed and whose cost has been charged.
func (e *ProductExplorer) Materialized() int { return e.prod.Closed() }

// Discovered returns the number of states interned so far (closed states
// plus the unexplored frontier).
func (e *ProductExplorer) Discovered() int { return e.prod.Len() }

// PairRange returns the half-open range [lo, hi) of factor f's lifted
// pairs inside the product's acceptance list.
func (e *ProductExplorer) PairRange(f int) (lo, hi int) {
	return e.pairOffset[f], e.pairOffset[f+1]
}

// StateTuple returns the factor states of product state i.
func (e *ProductExplorer) StateTuple(i int) []int {
	out := make([]int, len(e.autos))
	for f := range out {
		out[f] = e.prod.State(i, f)
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
	n := e.prod.Len()
	pairs := make([]Pair, len(e.pairs))
	for i, p := range e.pairs {
		pairs[i] = Pair{R: p.R[:n:n], P: p.P[:n:n]}
	}
	v := &Automaton{
		alpha: e.alpha,
		kern:  autkern.New(e.prod.Rows()[:n:n], e.alpha.Size(), 0),
		pairs: pairs,
	}
	closed := make([]bool, n)
	for i := 0; i < e.prod.Closed(); i++ {
		closed[i] = true
	}
	return v, closed
}
