// Package ts implements fair transition systems — the program model the
// paper's verification examples live in ([MP83]): finite-state systems
// whose transitions carry weak-fairness (justice) or strong-fairness
// (compassion) requirements, generating the computations that properties
// classify.
package ts

import (
	"fmt"
	"sort"

	"repro/internal/alphabet"
)

// Fairness is the fairness requirement attached to a transition.
type Fairness int

// The three fairness levels of §4.
const (
	// Unfair transitions carry no requirement.
	Unfair Fairness = iota + 1
	// Weak fairness (justice): a transition continuously enabled from
	// some point on must be taken infinitely often.
	Weak
	// Strong fairness (compassion): a transition enabled infinitely
	// often must be taken infinitely often.
	Strong
)

func (f Fairness) String() string {
	switch f {
	case Unfair:
		return "unfair"
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Fairness(%d)", int(f))
	}
}

// Transition is one named program transition: a relation on states with a
// fairness requirement. It is enabled at a state iff it has at least one
// successor there. A Builder's transitions collect steps; Build freezes a
// copy of each into the System, so a built transition never changes.
type Transition struct {
	Name string
	Fair Fairness
	// steps collects a builder transition's steps; nil once built.
	steps map[int][]int
	// succ is a built transition's frozen successor table.
	succ table
}

// table is a frozen successor relation: the successors of state s are
// to[off[s]:off[s+1]], in the order the steps were added.
type table struct {
	off []int32
	to  []int
}

// freeze lays out the successor lists of states 0..n-1 as a table.
func freeze(n int, succ func(s int) []int) table {
	tb := table{off: make([]int32, n+1)}
	for s := 0; s < n; s++ {
		tb.to = append(tb.to, succ(s)...)
		tb.off[s+1] = int32(len(tb.to))
	}
	return tb
}

// row returns state s's successors, capped so that an append by a caller
// cannot overwrite the next state's.
func (tb *table) row(s int) []int {
	if s < 0 || s+1 >= len(tb.off) {
		return nil
	}
	lo, hi := tb.off[s], tb.off[s+1]
	return tb.to[lo:hi:hi]
}

// Successors returns the transition's successors at state s (nil if
// disabled).
func (t *Transition) Successors(s int) []int {
	return append([]int(nil), t.SuccessorsShared(s)...)
}

// SuccessorsShared is Successors without the defensive copy: the slice is
// shared with the transition and must not be mutated. It exists for the
// hot exploration loops — the sharded product workers read successor sets
// from many goroutines at once, which is safe exactly because a built
// transition's table is frozen and nothing is allocated or written.
func (t *Transition) SuccessorsShared(s int) []int {
	if t.steps != nil {
		return t.steps[s]
	}
	return t.succ.row(s)
}

// Enabled reports whether the transition is enabled at s.
func (t *Transition) Enabled(s int) bool { return len(t.SuccessorsShared(s)) > 0 }

// System is an immutable fair transition system.
type System struct {
	names []string
	valu  []alphabet.Valuation
	init  []int
	trans []*Transition
	props []string
	// all holds each state's successors across all transitions,
	// deduplicated and sorted.
	all table
}

// Builder assembles a System.
type Builder struct {
	names   []string
	index   map[string]int
	valu    []alphabet.Valuation
	init    []int
	trans   []*Transition
	propSet map[string]bool
}

// NewBuilder returns an empty system builder.
func NewBuilder() *Builder {
	return &Builder{index: map[string]int{}, propSet: map[string]bool{}}
}

// State declares (or retrieves) a named state; trueProps are the atomic
// propositions holding there. Declaring an existing name with different
// propositions is an error at Build time.
func (b *Builder) State(name string, trueProps ...string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.index[name] = i
	b.names = append(b.names, name)
	v := alphabet.Valuation{}
	for _, p := range trueProps {
		v[p] = true
		b.propSet[p] = true
	}
	b.valu = append(b.valu, v)
	return i
}

// SetInit marks states as initial.
func (b *Builder) SetInit(states ...int) { b.init = append(b.init, states...) }

// Transition declares a named transition with the given fairness and
// returns it for step population.
func (b *Builder) Transition(name string, fair Fairness) *Transition {
	t := &Transition{Name: name, Fair: fair, steps: map[int][]int{}}
	b.trans = append(b.trans, t)
	return t
}

// Step adds a step from → to to a builder's transition. The transitions
// of a built System are frozen: Step on one of them panics.
func (t *Transition) Step(from, to int) *Transition {
	if t.steps == nil {
		panic(fmt.Sprintf("ts: Step(%d, %d) on transition %q of a built System; a System is immutable, so add the step through the Builder and Build again", from, to, t.Name))
	}
	t.steps[from] = append(t.steps[from], to)
	return t
}

// AddIdle gives every state an unfair self-loop, making the system
// deadlock-free (the paper's convention of extending terminating
// computations by repeating the final state).
func (b *Builder) AddIdle() {
	idle := b.Transition("idle", Unfair)
	for s := range b.names {
		idle.Step(s, s)
	}
}

// Build validates and freezes the system: at least one state and initial
// state, all step endpoints in range, and no deadlocked reachable state.
// The System gets frozen copies of the builder's transitions, so steps
// added to the builder afterwards reach only a later Build.
func (b *Builder) Build() (*System, error) {
	n := len(b.names)
	if n == 0 {
		return nil, fmt.Errorf("ts: no states")
	}
	if len(b.init) == 0 {
		return nil, fmt.Errorf("ts: no initial states")
	}
	for _, s := range b.init {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("ts: initial state %d out of range", s)
		}
	}
	for _, t := range b.trans {
		for from, tos := range t.steps {
			if from < 0 || from >= n {
				return nil, fmt.Errorf("ts: transition %s step from %d out of range", t.Name, from)
			}
			for _, to := range tos {
				if to < 0 || to >= n {
					return nil, fmt.Errorf("ts: transition %s step to %d out of range", t.Name, to)
				}
			}
		}
	}
	sys := &System{
		names: append([]string(nil), b.names...),
		valu:  append([]alphabet.Valuation(nil), b.valu...),
		init:  append([]int(nil), b.init...),
		trans: make([]*Transition, len(b.trans)),
	}
	for i, t := range b.trans {
		sys.trans[i] = &Transition{Name: t.Name, Fair: t.Fair,
			succ: freeze(n, func(s int) []int { return t.steps[s] })}
	}
	mark := make([]int, n) // mark[to] == s+1: to already listed for s
	var row []int
	sys.all = freeze(n, func(s int) []int {
		row = row[:0]
		for _, t := range sys.trans {
			for _, to := range t.succ.row(s) {
				if mark[to] != s+1 {
					mark[to] = s + 1
					row = append(row, to)
				}
			}
		}
		sort.Ints(row)
		return row
	})
	for p := range b.propSet {
		sys.props = append(sys.props, p)
	}
	sort.Strings(sys.props)
	// Deadlock check on reachable states.
	for _, s := range sys.ReachableStates() {
		if len(sys.AllSuccessors(s)) == 0 {
			return nil, fmt.Errorf("ts: reachable state %q is deadlocked (use AddIdle)", sys.names[s])
		}
	}
	return sys, nil
}

// NumStates returns the number of states.
func (s *System) NumStates() int { return len(s.names) }

// StateName returns the name of state i.
func (s *System) StateName(i int) string { return s.names[i] }

// StateIndex returns the index of a named state, or -1.
func (s *System) StateIndex(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Valuation returns the proposition valuation of state i (shared; do not
// mutate).
func (s *System) Valuation(i int) alphabet.Valuation { return s.valu[i] }

// Props returns the sorted proposition names used by the system.
func (s *System) Props() []string { return append([]string(nil), s.props...) }

// Init returns the initial states.
func (s *System) Init() []int { return append([]int(nil), s.init...) }

// Transitions returns the system's transitions.
func (s *System) Transitions() []*Transition { return s.trans }

// AllSuccessors returns the successors of a state across all transitions
// (deduplicated, sorted; shared with the system, do not mutate).
func (s *System) AllSuccessors(state int) []int { return s.all.row(state) }

// ReachableStates returns the states reachable from the initial states.
func (s *System) ReachableStates() []int {
	seen := make([]bool, s.NumStates())
	var stack, out []int
	for _, i := range s.init {
		if !seen[i] {
			seen[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, q)
		for _, next := range s.AllSuccessors(q) {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Symbol returns the state's valuation symbol restricted to the given
// propositions — the letter the state contributes to a property
// automaton's input word.
func (s *System) Symbol(state int, props []string) alphabet.Symbol {
	v := alphabet.Valuation{}
	for _, p := range props {
		if s.valu[state][p] {
			v[p] = true
		}
	}
	return v.Symbol()
}
