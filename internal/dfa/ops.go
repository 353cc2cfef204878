package dfa

import (
	"context"
	"fmt"
	"math"

	"repro/internal/autkern"
	"repro/internal/fault"
	"repro/internal/obs"
)

var cntProductStates = obs.NewCounter("dfa.product.states")

// BoolOp is a binary boolean combinator for Product.
type BoolOp int

// The supported product combinators.
const (
	OpAnd BoolOp = iota + 1
	OpOr
	OpAndNot
	OpXor
)

func (op BoolOp) valid() bool { return op >= OpAnd && op <= OpXor }

func (op BoolOp) apply(a, b bool) bool {
	switch op {
	case OpAnd:
		return a && b
	case OpOr:
		return a || b
	case OpAndNot:
		return a && !b
	case OpXor:
		return a != b
	default:
		// Unreachable: Product validates op before the state loop.
		panic(fmt.Sprintf("dfa: unknown BoolOp %d", op))
	}
}

// Product returns the product automaton accepting {w : op(w∈L(d), w∈L(e))}.
// Both automata must share the same alphabet. Only reachable product states
// are materialized.
func (d *DFA) Product(e *DFA, op BoolOp) (*DFA, error) {
	return d.ProductCtx(context.Background(), e, op)
}

// ProductCtx is Product with resource governance: it explores the
// kernel's synchronous product (autkern.Product) to the end, and every
// product state hits the dfa.product fault site and is charged against
// the context's budget, so a blowing-up product aborts with
// budget.ErrBudgetExceeded instead of exhausting memory.
func (d *DFA) ProductCtx(ctx context.Context, e *DFA, op BoolOp) (*DFA, error) {
	if !op.valid() {
		return nil, fmt.Errorf("dfa: unknown BoolOp %d", op)
	}
	if !d.alpha.Equal(e.alpha) {
		return nil, fmt.Errorf("dfa: product over different alphabets %v and %v", d.alpha, e.alpha)
	}
	sp := obs.StartIn(ctx, "dfa.product").Int("left_states", d.NumStates()).Int("right_states", e.NumStates())
	defer sp.End()
	prod := autkern.NewProduct(d.kern, e.kern)
	hit := func() error { return fault.Hit(fault.SiteDFAProduct) }
	if _, err := prod.Explore(ctx, math.MaxInt, hit); err != nil {
		return nil, err
	}
	n := prod.Len()
	accept := make([]bool, n)
	for i := range accept {
		accept[i] = op.apply(d.accept[prod.State(i, 0)], e.accept[prod.State(i, 1)])
	}
	sp.Int("states", n)
	cntProductStates.Add(int64(n))
	return &DFA{alpha: d.alpha, kern: autkern.New(prod.Rows(), d.alpha.Size(), 0), accept: accept}, nil
}

// Intersect returns a DFA for L(d) ∩ L(e).
func (d *DFA) Intersect(e *DFA) (*DFA, error) { return d.Product(e, OpAnd) }

// Union returns a DFA for L(d) ∪ L(e).
func (d *DFA) Union(e *DFA) (*DFA, error) { return d.Product(e, OpOr) }

// Minus returns a DFA for L(d) − L(e).
func (d *DFA) Minus(e *DFA) (*DFA, error) { return d.Product(e, OpAndNot) }

// Complement returns a DFA for the complement of L(d) (with respect to Σ*;
// package lang interprets languages within Σ⁺).
func (d *DFA) Complement() *DFA {
	out := d.Clone()
	for q := range out.accept {
		out.accept[q] = !out.accept[q]
	}
	return out
}

// Equal reports whether two DFAs accept the same language within Σ⁺
// (the empty word is ignored, matching the paper's finitary properties).
func (d *DFA) Equal(e *DFA) (bool, error) {
	x, err := d.Product(e, OpXor)
	if err != nil {
		return false, err
	}
	return x.IsEmpty(), nil
}

// PrefixClosedSubset returns a DFA for A_f(Φ): the words all of whose
// non-empty prefixes (including the word itself) belong to L(d).
func (d *DFA) PrefixClosedSubset() *DFA {
	// Redirect every transition into a non-accepting state to a dead sink:
	// once any prefix leaves L(d), the word and all extensions are out.
	n := d.NumStates()
	k := d.alpha.Size()
	sink := n
	trans := make([][]int, n+1)
	accept := make([]bool, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			next := d.kern.Step(q, s)
			if d.accept[next] {
				row[s] = next
			} else {
				row[s] = sink
			}
		}
		trans[q] = row
		accept[q] = d.accept[q]
	}
	sinkRow := make([]int, k)
	for s := range sinkRow {
		sinkRow[s] = sink
	}
	trans[sink] = sinkRow
	return MustNew(d.alpha, trans, d.kern.Start(), accept).Trim()
}

// ExtensionClosure returns a DFA for E_f(Φ) = Φ·Σ*: the words having some
// non-empty prefix in L(d).
func (d *DFA) ExtensionClosure() *DFA {
	// Once an accepting state is reached, lock into an all-accepting sink.
	n := d.NumStates()
	k := d.alpha.Size()
	top := n
	trans := make([][]int, n+1)
	accept := make([]bool, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			next := d.kern.Step(q, s)
			if d.accept[next] {
				row[s] = top
			} else {
				row[s] = next
			}
		}
		trans[q] = row
		accept[q] = false
	}
	topRow := make([]int, k)
	for s := range topRow {
		topRow[s] = top
	}
	trans[top] = topRow
	accept[top] = true
	out := MustNew(d.alpha, trans, d.kern.Start(), accept)
	if d.accept[d.kern.Start()] {
		// ε ∈ L(d) is ignored: finitary properties live in Σ⁺.
		out.accept[out.kern.Start()] = false
	}
	return out.Trim()
}

// LiveStates returns, for each state, whether some accepting state is
// reachable from it (possibly by the empty path, i.e. accepting states are
// live).
func (d *DFA) LiveStates() []bool {
	// Reverse reachability from accepting states, over the kernel's
	// cached reverse adjacency.
	return d.kern.BackwardClosure(d.accept)
}

// Prefixes returns a DFA for the language of non-empty prefixes of words in
// L(d): {w ∈ Σ⁺ : ∃u, w·u ∈ L(d)} (u may be empty).
func (d *DFA) Prefixes() *DFA {
	live := d.LiveStates()
	out := d.Clone()
	for q := range out.accept {
		out.accept[q] = live[q]
	}
	return out
}

// PrefixFreeKernel returns a DFA for the words of L(d) none of whose proper
// non-empty prefixes are in L(d).
func (d *DFA) PrefixFreeKernel() *DFA {
	// States (q, seen) with seen = "some proper non-empty prefix was in
	// L(d)", plus a dedicated initial state for the ε position (ε never
	// sets the bit even if the start state is accepting). The bit updates
	// before each step: nextSeen = seen ∨ accept(q).
	n := d.NumStates()
	k := d.alpha.Size()
	initState := 2 * n
	trans := make([][]int, 2*n+1)
	accept := make([]bool, 2*n+1)
	for seen := 0; seen < 2; seen++ {
		for q := 0; q < n; q++ {
			id := q + n*seen
			row := make([]int, k)
			nextSeen := seen
			if d.accept[q] {
				nextSeen = 1
			}
			for s := 0; s < k; s++ {
				row[s] = d.kern.Step(q, s) + n*nextSeen
			}
			trans[id] = row
			accept[id] = d.accept[q] && seen == 0
		}
	}
	initRow := make([]int, k)
	for s := 0; s < k; s++ {
		initRow[s] = d.kern.Step(d.kern.Start(), s) // seen stays 0 out of ε
	}
	trans[initState] = initRow
	return MustNew(d.alpha, trans, initState, accept).Trim()
}

// Minex returns a DFA for minex(Φ1, Φ2) (§2 of the paper): the words
// σ2 ∈ Φ2 that are a minimal proper Φ2-extension of some σ1 ∈ Φ1.
// Φ1 = L(d) ∩ Σ⁺ and Φ2 = L(e) ∩ Σ⁺.
func (d *DFA) Minex(e *DFA) (*DFA, error) {
	if !d.alpha.Equal(e.alpha) {
		return nil, fmt.Errorf("dfa: minex over different alphabets")
	}
	// State: (q1, q2, b) where b says: the word w read so far has a proper
	// non-empty prefix u ∈ Φ1 with no v ∈ Φ2, u ≺ v ≺ w.
	// Update on reading a symbol (before stepping):
	//   b' = (w ∈ Φ1 ∧ w ≠ ε) ∨ (b ∧ w ∉ Φ2).
	// Accept w iff w ∈ Φ2 ∧ b.
	k := d.alpha.Size()
	type st struct {
		q1, q2 int
		b      bool
		isInit bool // the ε position, where Φ1-membership must not fire
	}
	in := autkern.NewInterner[st]()
	in.Intern(st{q1: d.kern.Start(), q2: e.kern.Start(), isInit: true})
	var trans [][]int
	var accept []bool
	for i := 0; i < in.Len(); i++ {
		s := in.Key(i)
		row := make([]int, k)
		inPhi1 := d.accept[s.q1] && !s.isInit
		inPhi2 := e.accept[s.q2] && !s.isInit
		nb := inPhi1 || (s.b && !inPhi2)
		for sym := 0; sym < k; sym++ {
			row[sym] = in.Intern(st{q1: d.kern.Step(s.q1, sym), q2: e.kern.Step(s.q2, sym), b: nb})
		}
		trans = append(trans, row)
		accept = append(accept, inPhi2 && s.b)
	}
	return New(d.alpha, trans, 0, accept)
}
