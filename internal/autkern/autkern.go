// Package autkern is the shared automaton kernel: one dense,
// alphabet-indexed transition-table substrate under both dfa.DFA and
// omega.Automaton, carrying the graph algorithms every decision
// procedure in the repository bottoms out in — BFS reachability and
// trimming, Tarjan SCC decomposition, the Streett refinement and its
// lasso extractor, the partition refinement and the synchronous
// product — plus the interners that assign dense state ids during
// product-style constructions.
//
// The packages above it (dfa, omega, mc, core, compile, lang, regex)
// used to carry their own copies of these routines; this package is the
// single implementation. The repository-level lint in scripts/check.sh
// rejects new ad-hoc SCC or interner implementations outside it.
//
// # Immutability and cached analyses
//
// A Kernel is immutable after construction: the transition rows are
// owned by the kernel and never written again. That makes the derived
// analyses — the reachable set, the reverse adjacency, the full SCC
// decomposition — pure functions of the kernel, so they are computed
// lazily, at most once per kernel, and cached without any invalidation
// protocol. Caching is race-safe: concurrent callers may both compute a
// missing analysis, one result wins the compare-and-swap, and both
// observe a consistent value because the computation is deterministic.
// Cached slices are shared between callers and MUST be treated as
// read-only; methods returning them say so.
//
// Rows may be ragged: a nil row is a state with no outgoing edges (the
// lazy product explorer's frontier states). Validation — completeness,
// range checks, error messages naming alphabet symbols — stays with the
// callers, which own the alphabet; the kernel trusts its input.
package autkern

import (
	"slices"
	"sync/atomic"
)

// Kernel is an immutable dense transition table with cached analyses.
type Kernel struct {
	rows  [][]int
	width int // alphabet size (row width for complete tables)
	start int

	reach   atomic.Pointer[[]bool]  // states reachable from start
	rev     atomic.Pointer[[][]int] // reverse adjacency lists
	sccsAll atomic.Pointer[[][]int] // SCCs(nil): the full decomposition
}

// New wraps a transition table in a kernel, taking ownership of rows:
// the caller must not mutate them afterwards. Rows may be ragged or nil
// (states without outgoing edges); completeness validation is the
// caller's job.
func New(rows [][]int, width, start int) *Kernel {
	return &Kernel{rows: rows, width: width, start: start}
}

// NumStates returns the number of states.
func (kn *Kernel) NumStates() int { return len(kn.rows) }

// Width returns the alphabet size (the row width of complete tables).
func (kn *Kernel) Width() int { return kn.width }

// Start returns the initial state.
func (kn *Kernel) Start() int { return kn.start }

// Row returns state q's successor row (read-only, shared backing; nil
// for frontier states of a partial kernel).
func (kn *Kernel) Row(q int) []int { return kn.rows[q] }

// Rows returns the whole transition table (read-only, shared backing).
func (kn *Kernel) Rows() [][]int { return kn.rows }

// Step returns δ(q, symbol #s).
func (kn *Kernel) Step(q, s int) int { return kn.rows[q][s] }

// WithStart returns a kernel over the same rows with a different start
// state. Start-independent caches (reverse adjacency, full SCC
// decomposition) carry over; the reachable set does not.
func (kn *Kernel) WithStart(q int) *Kernel {
	if q < 0 || q >= len(kn.rows) {
		panic("autkern: WithStart state out of range")
	}
	out := &Kernel{rows: kn.rows, width: kn.width, start: q}
	if rev := kn.rev.Load(); rev != nil {
		out.rev.Store(rev)
	}
	if sccs := kn.sccsAll.Load(); sccs != nil {
		out.sccsAll.Store(sccs)
	}
	return out
}

// Trim returns the kernel over this complete kernel's reachable states,
// renumbered in ascending order, and kept: new state i is old state
// kept[i]. dfa and omega copy their acceptance through kept.
func (kn *Kernel) Trim() (trimmed *Kernel, kept []int) {
	pos := make([]int, len(kn.rows))
	kept = make([]int, 0, len(kn.rows))
	for q, ok := range kn.Reachable() {
		if ok {
			pos[q] = len(kept)
			kept = append(kept, q)
		}
	}
	k := kn.width
	flat := make([]int, len(kept)*k)
	rows := make([][]int, len(kept))
	for i, q := range kept {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
		for s, next := range kn.rows[q] {
			rows[i][s] = pos[next]
		}
	}
	return New(rows, k, pos[kn.start]), kept
}

// Reachable returns the states reachable from start. The slice is
// cached and shared: treat it as read-only.
func (kn *Kernel) Reachable() []bool {
	if r := kn.reach.Load(); r != nil {
		return *r
	}
	r := kn.ReachableFrom(kn.start)
	kn.reach.CompareAndSwap(nil, &r)
	return *kn.reach.Load()
}

// ReachableFrom returns the states reachable from q (uncached; the
// caller owns the slice).
func (kn *Kernel) ReachableFrom(q int) []bool {
	seen := make([]bool, len(kn.rows))
	seen[q] = true
	stack := make([]int, 1, 16)
	stack[0] = q
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range kn.rows[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// ReachableFromSet returns the states reachable from the seed states
// (the seeds themselves included). The caller owns the slice.
func (kn *Kernel) ReachableFromSet(seeds []int) []bool {
	seen := make([]bool, len(kn.rows))
	stack := make([]int, 0, len(seeds))
	for _, q := range seeds {
		if !seen[q] {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range kn.rows[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// Reverse returns the reverse adjacency lists (rev[q] = predecessors of
// q, one entry per edge). The slice is cached and shared: read-only.
func (kn *Kernel) Reverse() [][]int {
	if r := kn.rev.Load(); r != nil {
		return *r
	}
	rev := make([][]int, len(kn.rows))
	for q := range kn.rows {
		for _, next := range kn.rows[q] {
			rev[next] = append(rev[next], q)
		}
	}
	kn.rev.CompareAndSwap(nil, &rev)
	return *kn.rev.Load()
}

// BackwardClosure returns the set of states from which some seed state
// is reachable (the seeds themselves included): the seed set propagated
// backwards over the cached reverse adjacency. The caller owns the
// returned slice; seed is not modified.
func (kn *Kernel) BackwardClosure(seed []bool) []bool {
	rev := kn.Reverse()
	out := make([]bool, len(kn.rows))
	stack := make([]int, 0, 16)
	for q, in := range seed {
		if in {
			out[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// SCCs returns the strongly connected components of the transition
// graph restricted to the allowed states (nil means all). Components
// are sorted internally and returned in Tarjan completion order
// (reverse topological). The allowed == nil decomposition is cached and
// shared: treat it as read-only.
func (kn *Kernel) SCCs(allowed []bool) [][]int {
	if allowed == nil {
		if c := kn.sccsAll.Load(); c != nil {
			return *c
		}
		c := kn.computeSCCs(nil)
		kn.sccsAll.CompareAndSwap(nil, &c)
		return *kn.sccsAll.Load()
	}
	return kn.computeSCCs(allowed)
}

func (kn *Kernel) computeSCCs(allowed []bool) [][]int {
	rows := kn.rows
	return SCCsFunc(len(rows),
		func(q int) int { return len(rows[q]) },
		func(q, i int) int { return rows[q][i] },
		allowed)
}

// IsCyclic reports whether the given state set contains at least one
// edge internal to the set — i.e. whether a run can stay inside it. A
// singleton is cyclic only with a self-loop. The set must be sorted
// ascending, as every component SCCs returns is: membership is a binary
// search over it, so the check allocates nothing.
func (kn *Kernel) IsCyclic(set []int) bool {
	for _, q := range set {
		for _, next := range kn.rows[q] {
			if _, in := slices.BinarySearch(set, next); in {
				return true
			}
		}
	}
	return false
}

// Members converts a state slice into a membership vector of length n.
func Members(n int, set []int) []bool {
	v := make([]bool, n)
	for _, q := range set {
		v[q] = true
	}
	return v
}
