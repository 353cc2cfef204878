package autkern

import (
	"context"

	"repro/internal/budget"
)

// Product is the kernel's one synchronous product of complete kernels
// over one alphabet, explored on demand: state i is a tuple of factor
// states, and on each symbol every factor steps. omega's intersection and
// lazy explorer, dfa's boolean products and lang's simple reactivity
// automaton build their products here and keep only their acceptance.
//
// States close — get their rows — in discovery order, so the closed
// states are a BFS prefix from the joint start whose rows are final, the
// frontier's rows are nil, and a product explored to the end is numbered
// in BFS order. Two factors intern through a PairInterner, any other
// number through a TupleInterner. A Product is not safe for concurrent
// use.
type Product struct {
	factors []*Kernel
	pairs   *PairInterner  // two factors
	tuples  *TupleInterner // any other number
	tup     []int32        // with tuples: state i's tuple at tup[i*nf:]
	next    []int32        // with tuples: scratch
	rows    [][]int
	closed  int
}

// NewProduct discovers the joint start state of the factors. Nothing is
// closed yet; Explore drives the construction.
func NewProduct(factors ...*Kernel) *Product {
	p := &Product{factors: factors}
	if len(factors) == 2 {
		p.pairs = NewPairInterner()
		p.pair(factors[0].start, factors[1].start)
		return p
	}
	p.tuples = NewTupleInterner()
	p.next = make([]int32, len(factors))
	for f, kn := range factors {
		p.next[f] = int32(kn.start)
	}
	p.tuple(p.next)
	return p
}

// pair and tuple intern a state, adding a new one to the frontier.
func (p *Product) pair(x, y int) int {
	i := p.pairs.Intern(x, y)
	if i == len(p.rows) {
		p.rows = append(p.rows, nil)
	}
	return i
}

func (p *Product) tuple(t []int32) int {
	i, fresh := p.tuples.Intern32(t)
	if fresh {
		p.tup = append(p.tup, t...)
		p.rows = append(p.rows, nil)
	}
	return i
}

// Explore closes states until every discovered state is closed (done) or
// at least limit states are; a limit at or below Closed closes nothing.
// Before closing a state it calls hook, when set — an error aborts, and a
// caller's fault site sits there — then polls ctx as budget.Poll does and
// charges one state. The budget is read from ctx once per call.
func (p *Product) Explore(ctx context.Context, limit int, hook func() error) (done bool, err error) {
	b := budget.FromContext(ctx)
	for p.closed < len(p.rows) && p.closed < limit {
		if hook != nil {
			if err := hook(); err != nil {
				return false, err
			}
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if err := b.ChargeSteps(0); err != nil {
			return false, err
		}
		if err := b.ChargeStates(1); err != nil {
			return false, err
		}
		row := make([]int, p.factors[0].width)
		if p.pairs != nil {
			x, y := p.pairs.Pair(p.closed)
			xs, ys := p.factors[0].rows[x], p.factors[1].rows[y]
			for s := range row {
				row[s] = p.pair(xs[s], ys[s])
			}
		} else {
			// Appending to p.tup never writes an existing tuple.
			nf := len(p.factors)
			cur := p.tup[p.closed*nf : (p.closed+1)*nf]
			for s := range row {
				for f, kn := range p.factors {
					p.next[f] = int32(kn.rows[cur[f]][s])
				}
				row[s] = p.tuple(p.next)
			}
		}
		p.rows[p.closed] = row
		p.closed++
	}
	return p.closed == len(p.rows), nil
}

// Closed returns the number of closed states.
func (p *Product) Closed() int { return p.closed }

// Len returns the number of discovered states, closed or frontier.
func (p *Product) Len() int { return len(p.rows) }

// Rows returns the discovered states' rows, nil for the frontier
// (read-only, shared backing).
func (p *Product) Rows() [][]int { return p.rows }

// State returns factor f's state in product state i.
func (p *Product) State(i, f int) int {
	if p.pairs == nil {
		return int(p.tup[i*len(p.factors)+f])
	}
	x, y := p.pairs.Pair(i)
	if f == 0 {
		return x
	}
	return y
}
