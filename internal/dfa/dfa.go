// Package dfa implements complete deterministic finite automata (and the
// nondeterministic automata used to build them) over the alphabets of
// package alphabet.
//
// DFAs are the representation of the paper's finitary properties Φ ⊆ Σ⁺:
// all of the paper's examples, and every finitary property expressible by a
// past temporal formula, are regular. The package provides the boolean
// operations, the prefix-oriented closure operators the paper's linguistic
// view needs (A_f, E_f, prefix languages, prefix-free kernels, minex), and
// the transformation-monoid machinery behind the counter-freeness test of
// the automata view (Prop. 5.4).
package dfa

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/word"
)

// DFA is a complete deterministic finite automaton. States are integers
// 0..n-1; every state has exactly one successor per symbol. The
// transition structure lives in an autkern.Kernel shared with the rest
// of the repository's automaton machinery; the kernel also caches the
// DFA's graph analyses (reachability, reverse adjacency), which never
// need invalidation because DFAs are immutable after construction.
type DFA struct {
	alpha  *alphabet.Alphabet
	kern   *autkern.Kernel
	accept []bool

	minimal bool // built by the minimizer: minimal and BFS-numbered
}

// New builds a DFA and validates completeness. trans[q][i] must be a valid
// state for every state q and symbol index i.
func New(alpha *alphabet.Alphabet, trans [][]int, start int, accept []bool) (*DFA, error) {
	n := len(trans)
	if n == 0 {
		return nil, fmt.Errorf("dfa: need at least one state")
	}
	if len(accept) != n {
		return nil, fmt.Errorf("dfa: accept vector has %d entries for %d states", len(accept), n)
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("dfa: start state %d out of range", start)
	}
	k := alpha.Size()
	for q, row := range trans {
		if len(row) != k {
			return nil, fmt.Errorf("dfa: state %d has %d transitions for %d symbols", q, len(row), k)
		}
		for i, next := range row {
			if next < 0 || next >= n {
				return nil, fmt.Errorf("dfa: transition (%d, %s) -> %d out of range", q, alpha.Symbol(i), next)
			}
		}
	}
	flat := make([]int, n*k)
	rows := make([][]int, n)
	for q := range trans {
		rows[q] = flat[q*k : (q+1)*k : (q+1)*k]
		copy(rows[q], trans[q])
	}
	d := &DFA{alpha: alpha, kern: autkern.New(rows, k, start), accept: make([]bool, n)}
	copy(d.accept, accept)
	return d, nil
}

// MustNew is New but panics on error; for fixtures.
func MustNew(alpha *alphabet.Alphabet, trans [][]int, start int, accept []bool) *DFA {
	d, err := New(alpha, trans, start, accept)
	if err != nil {
		panic(err)
	}
	return d
}

// Alphabet returns the automaton's alphabet.
func (d *DFA) Alphabet() *alphabet.Alphabet { return d.alpha }

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return d.kern.NumStates() }

// Start returns the initial state.
func (d *DFA) Start() int { return d.kern.Start() }

// Kernel returns the DFA's graph kernel (shared, immutable).
func (d *DFA) Kernel() *autkern.Kernel { return d.kern }

// Accepting reports whether state q is accepting.
func (d *DFA) Accepting(q int) bool { return d.accept[q] }

// Step returns δ(q, s). Unknown symbols return -1.
func (d *DFA) Step(q int, s alphabet.Symbol) int {
	i := d.alpha.Index(s)
	if i < 0 {
		return -1
	}
	return d.kern.Step(q, i)
}

// StepIndex returns δ(q, symbol #i).
func (d *DFA) StepIndex(q, i int) int { return d.kern.Step(q, i) }

// Run returns δ(start, w), or an error if w contains a foreign symbol.
func (d *DFA) Run(w word.Finite) (int, error) {
	q := d.kern.Start()
	for _, s := range w {
		q = d.Step(q, s)
		if q < 0 {
			return 0, fmt.Errorf("dfa: symbol %q not in alphabet %v", s, d.alpha)
		}
	}
	return q, nil
}

// Accepts reports whether the DFA accepts w. Foreign symbols yield false.
func (d *DFA) Accepts(w word.Finite) bool {
	q, err := d.Run(w)
	if err != nil {
		return false
	}
	return d.accept[q]
}

// AcceptsString is Accepts on a single-character-symbol word.
func (d *DFA) AcceptsString(s string) bool {
	return d.Accepts(word.FiniteFromString(s))
}

// AcceptsEpsilon reports whether the start state is accepting. The paper's
// finitary properties live in Σ⁺; package lang normalizes ε away.
func (d *DFA) AcceptsEpsilon() bool { return d.accept[d.kern.Start()] }

// Clone returns a copy sharing the immutable kernel (rows and cached
// analyses); only the accept vector is duplicated, since Complement and
// Prefixes rewrite it in place on their copy.
func (d *DFA) Clone() *DFA {
	return &DFA{alpha: d.alpha, kern: d.kern, accept: append([]bool(nil), d.accept...)}
}

// Reachable returns the set of states reachable from start, as a boolean
// vector. Served from the kernel's cache; the returned slice is a copy
// the caller owns.
func (d *DFA) Reachable() []bool {
	return append([]bool(nil), d.kern.Reachable()...)
}

// Trim returns an equivalent DFA containing only reachable states,
// renumbered in ascending order (autkern.Kernel.Trim).
func (d *DFA) Trim() *DFA {
	kern, kept := d.kern.Trim()
	accept := make([]bool, len(kept))
	for i, q := range kept {
		accept[i] = d.accept[q]
	}
	return &DFA{alpha: d.alpha, kern: kern, accept: accept}
}

// IsEmpty reports whether L(D) ∩ Σ⁺ is empty: no accepting state is
// reachable by a non-empty word.
func (d *DFA) IsEmpty() bool {
	// States reachable by at least one symbol: the closure of the start
	// state's successor row.
	seen := d.kern.ReachableFromSet(d.kern.Row(d.kern.Start()))
	for q, ok := range seen {
		if ok && d.accept[q] {
			return false
		}
	}
	return true
}

// IsUniversal reports whether L(D) ⊇ Σ⁺.
func (d *DFA) IsUniversal() bool { return d.Complement().IsEmpty() }

// ShortestAccepted returns a shortest non-empty accepted word, or nil if
// L(D) ∩ Σ⁺ = ∅. BFS over states.
func (d *DFA) ShortestAccepted() word.Finite {
	type node struct {
		state int
		via   int // symbol index used to reach this node
		prev  *node
	}
	visited := make([]bool, d.kern.NumStates())
	var queue []*node
	for i, next := range d.kern.Row(d.kern.Start()) {
		n := &node{state: next, via: i}
		if d.accept[next] {
			return word.Finite{d.alpha.Symbol(i)}
		}
		if !visited[next] {
			visited[next] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i, next := range d.kern.Row(cur.state) {
			if visited[next] {
				continue
			}
			visited[next] = true
			n := &node{state: next, via: i, prev: cur}
			if d.accept[next] {
				var rev []int
				for p := n; p != nil; p = p.prev {
					rev = append(rev, p.via)
				}
				w := make(word.Finite, len(rev))
				for j := range rev {
					w[j] = d.alpha.Symbol(rev[len(rev)-1-j])
				}
				return w
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// Enumerate returns all accepted non-empty words of length ≤ maxLen, in
// length-lexicographic order. Intended for tests on small alphabets.
func (d *DFA) Enumerate(maxLen int) []word.Finite {
	var out []word.Finite
	k := d.alpha.Size()
	type item struct {
		state int
		w     word.Finite
	}
	frontier := []item{{state: d.kern.Start()}}
	for l := 1; l <= maxLen; l++ {
		next := make([]item, 0, len(frontier)*k)
		for _, it := range frontier {
			for i := 0; i < k; i++ {
				nw := append(append(word.Finite{}, it.w...), d.alpha.Symbol(i))
				ns := d.kern.Step(it.state, i)
				if d.accept[ns] {
					out = append(out, nw)
				}
				next = append(next, item{state: ns, w: nw})
			}
		}
		frontier = next
	}
	return out
}
