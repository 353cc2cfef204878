// Package lang implements the paper's linguistic view (§2): finitary
// properties Φ ⊆ Σ⁺ with the operators A_f, E_f, minex, Pref and
// complementation, and the four constructors A, E, R, P that build
// infinitary properties (deterministic Streett automata) from finitary
// ones, plus the compound constructors for simple obligation and simple
// reactivity properties.
package lang

import (
	"context"
	"fmt"
	"math"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/dfa"
	"repro/internal/omega"
	"repro/internal/regex"
	"repro/internal/word"
)

// Property is a finitary property: a regular language within Σ⁺,
// represented by a minimal complete DFA. The empty word is normalized out.
type Property struct {
	d *dfa.DFA
}

// FromDFA wraps a DFA as a finitary property. ε-acceptance is removed
// (finitary properties live in Σ⁺) and the automaton is minimized.
func FromDFA(d *dfa.DFA) *Property {
	if d.AcceptsEpsilon() {
		d = stripEpsilon(d)
	}
	return &Property{d: d.Minimize()}
}

// stripEpsilon returns a DFA with the same language minus ε, by cloning
// the start state into a fresh non-accepting copy.
func stripEpsilon(d *dfa.DFA) *dfa.DFA {
	n := d.NumStates()
	k := d.Alphabet().Size()
	trans := make([][]int, n+1)
	accept := make([]bool, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = d.StepIndex(q, s)
		}
		trans[q] = row
		accept[q] = d.Accepting(q)
	}
	startRow := make([]int, k)
	for s := 0; s < k; s++ {
		startRow[s] = d.StepIndex(d.Start(), s)
	}
	trans[n] = startRow
	accept[n] = false
	return dfa.MustNew(d.Alphabet(), trans, n, accept)
}

// FromRegex parses and compiles a finitary regular expression into a
// property over the given alphabet.
func FromRegex(expr string, alpha *alphabet.Alphabet) (*Property, error) {
	d, err := regex.CompileString(expr, alpha)
	if err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	return FromDFA(d), nil
}

// MustRegex is FromRegex but panics on error; for fixtures and examples.
func MustRegex(expr string, alpha *alphabet.Alphabet) *Property {
	p, err := FromRegex(expr, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

// Alphabet returns the property's alphabet.
func (p *Property) Alphabet() *alphabet.Alphabet { return p.d.Alphabet() }

// DFA returns the property's minimal DFA (do not mutate).
func (p *Property) DFA() *dfa.DFA { return p.d }

// Contains reports whether the non-empty finite word has the property.
func (p *Property) Contains(w word.Finite) bool {
	return len(w) > 0 && p.d.Accepts(w)
}

// IsEmpty reports whether the property holds of no word.
func (p *Property) IsEmpty() bool { return p.d.IsEmpty() }

// IsUniversal reports whether the property holds of every word in Σ⁺.
func (p *Property) IsUniversal() bool { return p.d.IsUniversal() }

// Equal reports whether two finitary properties coincide (within Σ⁺).
func (p *Property) Equal(q *Property) (bool, error) { return p.d.Equal(q.d) }

// Complement returns Σ⁺ − Φ.
func (p *Property) Complement() *Property { return FromDFA(p.d.Complement()) }

// Union returns Φ ∪ Ψ.
func (p *Property) Union(q *Property) (*Property, error) {
	d, err := p.d.Union(q.d)
	if err != nil {
		return nil, err
	}
	return FromDFA(d), nil
}

// Intersect returns Φ ∩ Ψ.
func (p *Property) Intersect(q *Property) (*Property, error) {
	d, err := p.d.Intersect(q.d)
	if err != nil {
		return nil, err
	}
	return FromDFA(d), nil
}

// Af returns A_f(Φ): the words all of whose non-empty prefixes are in Φ.
func (p *Property) Af() *Property { return FromDFA(p.d.PrefixClosedSubset()) }

// Ef returns E_f(Φ) = Φ·Σ*: the words with some non-empty prefix in Φ.
func (p *Property) Ef() *Property { return FromDFA(p.d.ExtensionClosure()) }

// Prefixes returns the non-empty prefixes of Φ-words.
func (p *Property) Prefixes() *Property { return FromDFA(p.d.Prefixes()) }

// PrefixFreeKernel returns the Φ-words with no proper Φ-prefix.
func (p *Property) PrefixFreeKernel() *Property { return FromDFA(p.d.PrefixFreeKernel()) }

// Minex returns minex(Φ, Ψ): the minimal proper Ψ-extensions of Φ-words.
func (p *Property) Minex(q *Property) (*Property, error) {
	d, err := p.d.Minex(q.d)
	if err != nil {
		return nil, err
	}
	return FromDFA(d), nil
}

// Op names one of the paper's four infinitary constructors.
type Op int

// The four constructors of §2.
const (
	OpA Op = iota + 1 // all prefixes
	OpE               // some prefix
	OpR               // infinitely many prefixes (recurrence)
	OpP               // all but finitely many prefixes (persistence)
)

func (o Op) String() string {
	switch o {
	case OpA:
		return "A"
	case OpE:
		return "E"
	case OpR:
		return "R"
	case OpP:
		return "P"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Apply builds the infinitary property O(Φ) as a Streett automaton.
func Apply(o Op, p *Property) (*omega.Automaton, error) {
	switch o {
	case OpA:
		return A(p), nil
	case OpE:
		return E(p), nil
	case OpR:
		return R(p), nil
	case OpP:
		return P(p), nil
	default:
		return nil, fmt.Errorf("lang: unknown operator %v", o)
	}
}

// A returns the safety property A(Φ): all prefixes of the word are in Φ.
// The result is a safety automaton: a single pair (∅, P) where leaving P
// is irreversible.
func A(p *Property) *omega.Automaton {
	d := p.d
	n := d.NumStates()
	k := d.Alphabet().Size()
	sink := n
	trans := make([][]int, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			next := d.StepIndex(q, s)
			if d.Accepting(next) {
				row[s] = next
			} else {
				row[s] = sink
			}
		}
		trans[q] = row
	}
	sinkRow := make([]int, k)
	for s := range sinkRow {
		sinkRow[s] = sink
	}
	trans[sink] = sinkRow
	pair := omega.Pair{R: make([]bool, n+1), P: make([]bool, n+1)}
	for q := 0; q < n; q++ {
		pair.P[q] = true
	}
	return omega.MustNew(d.Alphabet(), trans, d.Start(), []omega.Pair{pair}).Trim()
}

// E returns the guarantee property E(Φ) = Φ·Σ^ω: some prefix is in Φ.
// The result is a guarantee automaton: once the good region is entered it
// is never left.
func E(p *Property) *omega.Automaton {
	d := p.d
	n := d.NumStates()
	k := d.Alphabet().Size()
	top := n
	trans := make([][]int, n+1)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			next := d.StepIndex(q, s)
			if d.Accepting(next) {
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
	pair := omega.Pair{R: make([]bool, n+1), P: make([]bool, n+1)}
	pair.R[top] = true
	pair.P[top] = true
	return omega.MustNew(d.Alphabet(), trans, d.Start(), []omega.Pair{pair}).Trim()
}

// R returns the recurrence property R(Φ): infinitely many prefixes are in
// Φ. The result is a recurrence (Büchi-style) automaton: P = ∅.
func R(p *Property) *omega.Automaton {
	d := p.d
	n := d.NumStates()
	trans := copyTrans(d)
	pair := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
	for q := 0; q < n; q++ {
		pair.R[q] = d.Accepting(q)
	}
	return omega.MustNew(d.Alphabet(), trans, d.Start(), []omega.Pair{pair})
}

// P returns the persistence property P(Φ): all but finitely many prefixes
// are in Φ. The result is a persistence automaton: R = ∅.
func P(p *Property) *omega.Automaton {
	d := p.d
	n := d.NumStates()
	trans := copyTrans(d)
	pair := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
	for q := 0; q < n; q++ {
		pair.P[q] = d.Accepting(q)
	}
	return omega.MustNew(d.Alphabet(), trans, d.Start(), []omega.Pair{pair})
}

func copyTrans(d *dfa.DFA) [][]int {
	n := d.NumStates()
	k := d.Alphabet().Size()
	trans := make([][]int, n)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = d.StepIndex(q, s)
		}
		trans[q] = row
	}
	return trans
}

// SimpleObligation returns A(Φ) ∪ E(Ψ) as a single-pair automaton: the
// conditional obligation "if a Φ̄-prefix occurs, a Ψ-prefix must occur"
// shape of §2 is SimpleObligation(Φ̄', Ψ) for suitable arguments.
func SimpleObligation(phi, psi *Property) (*omega.Automaton, error) {
	if !phi.Alphabet().Equal(psi.Alphabet()) {
		return nil, fmt.Errorf("lang: obligation over different alphabets")
	}
	dA, dE := phi.d, psi.d
	k := dA.Alphabet().Size()
	nA := dA.NumStates()
	// A-side states 0..nA-1 plus sink nA; E-side latch handled by a
	// dedicated absorbing top product state.
	type st struct {
		qa int // nA = safety sink
		qe int
	}
	top := -1 // marker for the absorbing accept state
	in := autkern.NewInterner[st]()
	in.Intern(st{qa: dA.Start(), qe: dE.Start()})
	var trans [][]int
	for i := 0; i < in.Len(); i++ {
		s := in.Key(i)
		row := make([]int, k)
		if s.qa == top {
			// absorbing accept
			for sym := 0; sym < k; sym++ {
				row[sym] = i
			}
			trans = append(trans, row)
			continue
		}
		for sym := 0; sym < k; sym++ {
			nextE := dE.StepIndex(s.qe, sym)
			if dE.Accepting(nextE) {
				row[sym] = in.Intern(st{qa: top, qe: -1})
				continue
			}
			nextA := s.qa
			if nextA != nA {
				cand := dA.StepIndex(s.qa, sym)
				if dA.Accepting(cand) {
					nextA = cand
				} else {
					nextA = nA
				}
			}
			row[sym] = in.Intern(st{qa: nextA, qe: nextE})
		}
		trans = append(trans, row)
	}
	n := in.Len()
	pair := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
	for i := 0; i < n; i++ {
		s := in.Key(i)
		if s.qa == top {
			pair.R[i] = true
			pair.P[i] = true
		} else {
			pair.P[i] = s.qa != nA
		}
	}
	return omega.New(dA.Alphabet(), trans, 0, []omega.Pair{pair})
}

// SimpleReactivity returns R(Φ) ∪ P(Ψ) as a single-pair automaton — the
// paper's simple reactivity shape, whose Streett pair condition
// "inf ∩ R ≠ ∅ or inf ⊆ P" it realizes directly.
func SimpleReactivity(phi, psi *Property) (*omega.Automaton, error) {
	if !phi.Alphabet().Equal(psi.Alphabet()) {
		return nil, fmt.Errorf("lang: reactivity over different alphabets")
	}
	d1, d2 := phi.d, psi.d
	prod := autkern.NewProduct(d1.Kernel(), d2.Kernel())
	// Unbudgeted, with no hook: on a background context this cannot fail.
	if _, err := prod.Explore(context.Background(), math.MaxInt, nil); err != nil {
		return nil, err
	}
	n := prod.Len()
	pair := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
	for i := 0; i < n; i++ {
		pair.R[i] = d1.Accepting(prod.State(i, 0))
		pair.P[i] = d2.Accepting(prod.State(i, 1))
	}
	return omega.New(d1.Alphabet(), prod.Rows(), 0, []omega.Pair{pair})
}

// Obligation builds the conjunctive-normal-form obligation property
// ⋂ᵢ (A(Φᵢ) ∪ E(Ψᵢ)) as a k-pair automaton.
func Obligation(phis, psis []*Property) (*omega.Automaton, error) {
	if len(phis) != len(psis) || len(phis) == 0 {
		return nil, fmt.Errorf("lang: obligation needs matching non-empty conjunct lists")
	}
	autos := make([]*omega.Automaton, len(phis))
	for i := range phis {
		a, err := SimpleObligation(phis[i], psis[i])
		if err != nil {
			return nil, err
		}
		autos[i] = a
	}
	return omega.IntersectAll(autos...)
}

// Reactivity builds the conjunctive-normal-form reactivity property
// ⋂ᵢ (R(Φᵢ) ∪ P(Ψᵢ)) as a k-pair automaton.
func Reactivity(phis, psis []*Property) (*omega.Automaton, error) {
	if len(phis) != len(psis) || len(phis) == 0 {
		return nil, fmt.Errorf("lang: reactivity needs matching non-empty conjunct lists")
	}
	autos := make([]*omega.Automaton, len(phis))
	for i := range phis {
		a, err := SimpleReactivity(phis[i], psis[i])
		if err != nil {
			return nil, err
		}
		autos[i] = a
	}
	return omega.IntersectAll(autos...)
}
