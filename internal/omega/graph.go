package omega

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
