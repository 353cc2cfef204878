// Package omega implements the paper's predicate automata (§5): complete
// deterministic automata over infinite words with a Streett acceptance
// list L = (R_1,P_1),...,(R_k,P_k). A run r is accepting iff for every
// pair, inf(r) ∩ R_i ≠ ∅ or inf(r) ⊆ P_i.
//
// The package provides runs and acceptance over lasso words, synchronous
// products, Streett emptiness with witness extraction, SCC analysis and
// the accessible-cycle machinery on which the classification procedures of
// §5.1 (package core) are built.
package omega

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/word"
)

// ErrNotOmegaDeterministic is returned when an automaton description is
// not a complete deterministic predicate automaton: a state is missing a
// transition on some symbol, has more than one, or a transition targets a
// state outside the automaton. The paper's §5 machinery (and everything
// built on it) requires complete determinism.
var ErrNotOmegaDeterministic = errors.New("omega: automaton is not complete deterministic")

// Pair is one Streett acceptance pair (R, P), each a per-state membership
// vector.
type Pair struct {
	R []bool
	P []bool
}

// Automaton is a complete deterministic Streett predicate automaton.
// The transition structure lives in an autkern.Kernel, which also holds
// the automaton's cached graph analyses (reachable set, reverse
// adjacency, SCC decomposition); derived automata that only change the
// acceptance list or the start state share the kernel and its caches.
// Automata are immutable after construction, so the caches never need
// invalidation. The automaton itself caches what depends on its
// acceptance list too: the structural key and the live and co-live
// vectors.
type Automaton struct {
	alpha *alphabet.Alphabet
	kern  *autkern.Kernel
	pairs []Pair

	skey   atomic.Pointer[string] // cached StructuralKey
	live   atomic.Pointer[[]bool] // cached LiveStates
	coLive atomic.Pointer[[]bool] // cached CoLiveStates
}

// New builds and validates an automaton. Every pair's vectors must cover
// all states; transitions must be total.
func New(alpha *alphabet.Alphabet, trans [][]int, start int, pairs []Pair) (*Automaton, error) {
	n := len(trans)
	if n == 0 {
		return nil, fmt.Errorf("omega: need at least one state")
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("omega: start state %d out of range", start)
	}
	k := alpha.Size()
	for q, row := range trans {
		if len(row) != k {
			return nil, fmt.Errorf("%w: state %d has %d transitions for %d symbols", ErrNotOmegaDeterministic, q, len(row), k)
		}
		for i, next := range row {
			if next < 0 || next >= n {
				return nil, fmt.Errorf("%w: transition (%d,%s) -> %d out of range", ErrNotOmegaDeterministic, q, alpha.Symbol(i), next)
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("omega: need at least one acceptance pair")
	}
	for i, p := range pairs {
		if len(p.R) != n || len(p.P) != n {
			return nil, fmt.Errorf("omega: pair %d vectors don't cover %d states", i, n)
		}
	}
	rows := make([][]int, n)
	for q := range trans {
		rows[q] = append([]int(nil), trans[q]...)
	}
	a := &Automaton{alpha: alpha, kern: autkern.New(rows, k, start), pairs: make([]Pair, len(pairs))}
	for i, p := range pairs {
		a.pairs[i] = Pair{R: append([]bool(nil), p.R...), P: append([]bool(nil), p.P...)}
	}
	return a, nil
}

// withPairsShared returns an automaton over this automaton's kernel —
// sharing its transition rows and cached analyses — under a different
// acceptance list. Pairs are validated and deep-copied.
func (a *Automaton) withPairsShared(pairs []Pair) (*Automaton, error) {
	n := a.kern.NumStates()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("omega: need at least one acceptance pair")
	}
	for i, p := range pairs {
		if len(p.R) != n || len(p.P) != n {
			return nil, fmt.Errorf("omega: pair %d vectors don't cover %d states", i, n)
		}
	}
	out := &Automaton{alpha: a.alpha, kern: a.kern, pairs: make([]Pair, len(pairs))}
	for i, p := range pairs {
		out.pairs[i] = Pair{R: append([]bool(nil), p.R...), P: append([]bool(nil), p.P...)}
	}
	return out, nil
}

// sharedWithPairs is withPairsShared for internal search automata: the
// caller owns the (correctly sized) pair vectors, so nothing is
// validated or copied.
func (a *Automaton) sharedWithPairs(pairs []Pair) *Automaton {
	return &Automaton{alpha: a.alpha, kern: a.kern, pairs: pairs}
}

// MustNew is New but panics on error; for fixtures.
func MustNew(alpha *alphabet.Alphabet, trans [][]int, start int, pairs []Pair) *Automaton {
	a, err := New(alpha, trans, start, pairs)
	if err != nil {
		panic(err)
	}
	return a
}

// Alphabet returns the automaton's alphabet.
func (a *Automaton) Alphabet() *alphabet.Alphabet { return a.alpha }

// NumStates returns the number of states.
func (a *Automaton) NumStates() int { return a.kern.NumStates() }

// Start returns the initial state.
func (a *Automaton) Start() int { return a.kern.Start() }

// Kernel returns the automaton's graph kernel (shared, immutable).
func (a *Automaton) Kernel() *autkern.Kernel { return a.kern }

// NumPairs returns the number of Streett pairs.
func (a *Automaton) NumPairs() int { return len(a.pairs) }

// Pairs returns a deep copy of the acceptance list.
func (a *Automaton) Pairs() []Pair {
	out := make([]Pair, len(a.pairs))
	for i, p := range a.pairs {
		out[i] = Pair{R: append([]bool(nil), p.R...), P: append([]bool(nil), p.P...)}
	}
	return out
}

// Label returns the name String and Dot print for state q: q<n>.
func (a *Automaton) Label(q int) string { return fmt.Sprintf("q%d", q) }

// Step returns δ(q, s), or -1 for foreign symbols.
func (a *Automaton) Step(q int, s alphabet.Symbol) int {
	i := a.alpha.Index(s)
	if i < 0 {
		return -1
	}
	return a.kern.Step(q, i)
}

// StepIndex returns δ(q, symbol #i).
func (a *Automaton) StepIndex(q, i int) int { return a.kern.Step(q, i) }

// RunPrefix returns the state reached after reading the finite word, or an
// error on foreign symbols.
func (a *Automaton) RunPrefix(w word.Finite) (int, error) {
	q := a.kern.Start()
	for _, s := range w {
		q = a.Step(q, s)
		if q < 0 {
			return 0, fmt.Errorf("omega: symbol %q not in alphabet %v", s, a.alpha)
		}
	}
	return q, nil
}

// InfinitySet returns inf(r) for the unique run over the lasso word: the
// set of states visited infinitely often, as a sorted slice.
func (a *Automaton) InfinitySet(w word.Lasso) ([]int, error) {
	q, err := a.RunPrefix(w.PrefixPart())
	if err != nil {
		return nil, err
	}
	v := w.LoopPart()
	// Iterate whole-loop applications until the entry state repeats.
	seenAt := map[int]int{}
	var entries []int
	cur := q
	for {
		if _, ok := seenAt[cur]; ok {
			break
		}
		seenAt[cur] = len(entries)
		entries = append(entries, cur)
		for _, s := range v {
			cur = a.Step(cur, s)
			if cur < 0 {
				return nil, fmt.Errorf("omega: symbol not in alphabet")
			}
		}
	}
	// The cycle runs from entries[seenAt[cur]] back to cur. Collect every
	// state visited while reading v around the cycle.
	inf := map[int]bool{}
	for i := seenAt[cur]; i < len(entries); i++ {
		s := entries[i]
		for _, sym := range v {
			inf[s] = true
			s = a.Step(s, sym)
		}
	}
	out := make([]int, 0, len(inf))
	for s := range inf {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// AcceptsSet reports whether a run with the given infinity set is
// accepting under the Streett list.
func (a *Automaton) AcceptsSet(inf []int) bool {
	for _, p := range a.pairs {
		meetsR := false
		inP := true
		for _, q := range inf {
			if p.R[q] {
				meetsR = true
			}
			if !p.P[q] {
				inP = false
			}
		}
		if !meetsR && !inP {
			return false
		}
	}
	return true
}

// Accepts reports whether the automaton accepts the lasso word.
func (a *Automaton) Accepts(w word.Lasso) (bool, error) {
	inf, err := a.InfinitySet(w)
	if err != nil {
		return false, err
	}
	return a.AcceptsSet(inf), nil
}

// AcceptsOrFalse is Accepts treating errors (foreign symbols) as rejection.
func (a *Automaton) AcceptsOrFalse(w word.Lasso) bool {
	ok, err := a.Accepts(w)
	return err == nil && ok
}

// Reachable returns the set of states reachable from start. The result
// is served from the kernel's cache; the returned slice is a copy the
// caller owns. Internal hot paths use a.kern.Reachable() directly.
func (a *Automaton) Reachable() []bool {
	return append([]bool(nil), a.kern.Reachable()...)
}

// Trim returns an equivalent automaton over only the reachable states,
// renumbered in ascending order (autkern.Kernel.Trim).
func (a *Automaton) Trim() *Automaton {
	kern, kept := a.kern.Trim()
	pairs := make([]Pair, len(a.pairs))
	for i, p := range a.pairs {
		pairs[i] = Pair{R: make([]bool, len(kept)), P: make([]bool, len(kept))}
		for j, q := range kept {
			pairs[i].R[j], pairs[i].P[j] = p.R[q], p.P[q]
		}
	}
	return &Automaton{alpha: a.alpha, kern: kern, pairs: pairs}
}

// String renders a compact description of the automaton.
func (a *Automaton) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Streett automaton: %d states, %d pairs, start %s\n", a.kern.NumStates(), len(a.pairs), a.Label(a.kern.Start()))
	for i, p := range a.pairs {
		fmt.Fprintf(&b, "  pair %d: R=%s P=%s\n", i, a.setString(p.R), a.setString(p.P))
	}
	return b.String()
}

func (a *Automaton) setString(v []bool) string {
	var names []string
	for q, in := range v {
		if in {
			names = append(names, a.Label(q))
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}
