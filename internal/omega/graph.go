package omega

import (
	"repro/internal/autkern"
	"repro/internal/word"
)

// SCCs returns the strongly connected components of the transition graph
// restricted to the allowed states (nil means all states). Every allowed
// state appears in exactly one component; components are sorted internally.
// The full (allowed == nil) decomposition is cached on the kernel and
// shared: treat it as read-only.
func (a *Automaton) SCCs(allowed []bool) [][]int {
	return a.kern.SCCs(allowed)
}

// IsCyclic reports whether the given state set contains at least one edge
// internal to the set — i.e. whether a run can stay inside it. A singleton
// is cyclic only with a self-loop.
func (a *Automaton) IsCyclic(set []int) bool {
	return a.kern.IsCyclic(set)
}

// stateSet converts a sorted slice to a membership vector.
func (a *Automaton) stateSet(set []int) []bool {
	return autkern.Members(a.kern.NumStates(), set)
}

// pathWithin finds a shortest symbol path from x to y using only states in
// allowed (the endpoints must be allowed). Returns nil, false if none.
// A path of length zero is returned when x == y.
func (a *Automaton) pathWithin(x, y int, allowed []bool) (word.Finite, bool) {
	path, ok := a.kern.ShortestPathWithin(x, y, allowed)
	if !ok {
		return nil, false
	}
	w := make(word.Finite, len(path))
	for i, si := range path {
		w[i] = a.alpha.Symbol(si)
	}
	return w, true
}

// coveringCycle builds a non-empty word that, starting from anchor, visits
// every state of the (strongly connected, cyclic) set and returns to
// anchor, staying within the set.
func (a *Automaton) coveringCycle(anchor int, set []int) (word.Finite, bool) {
	allowed := a.stateSet(set)
	cur := anchor
	var out word.Finite
	for _, target := range set {
		seg, ok := a.pathWithin(cur, target, allowed)
		if !ok {
			return nil, false
		}
		out = append(out, seg...)
		cur = target
	}
	back, ok := a.pathWithin(cur, anchor, allowed)
	if !ok {
		return nil, false
	}
	out = append(out, back...)
	if len(out) == 0 {
		// Singleton SCC: use a self-loop symbol.
		for si, next := range a.kern.Row(anchor) {
			if next == anchor {
				return word.Finite{a.alpha.Symbol(si)}, true
			}
		}
		return nil, false
	}
	return out, true
}
