package autkern

import (
	"context"
	"errors"
	"slices"

	"repro/internal/budget"
	"repro/internal/obs"
)

// ErrNoLasso reports that Lasso found no path or cycle it needed: its set
// is not a strongly connected, cyclic set reachable from the sources.
var ErrNoLasso = errors.New("autkern: no lasso through the accepting set")

// NoKind marks a Pair whose R-set names no edges.
const NoKind = -1

// Graph is a directed graph over the nodes 0..len(Succ)-1: Succ[q] lists
// the targets of q's outgoing edges, in edge order. When Kind is set,
// Kind[q] lists their kinds, in 0..Kinds-1 (the model checker's
// transitions). The refinement only reads them.
type Graph struct {
	Succ  [][]int
	Kinds int
	Kind  [][]int
}

// Pair is one Streett pair over a graph's nodes and edge kinds: a run
// whose infinity set is the strongly connected set C satisfies it when C
// meets R — a node in R, or an edge of kind Kind inside C — or lies
// inside P. R and P are membership vectors over the nodes; nil is the
// empty set. Weak fairness of a transition t is (R = the edges of t and
// the nodes where t is disabled, P = ∅); strong fairness is (R = the
// edges of t, P = the nodes where t is disabled).
type Pair struct {
	R, P []bool
	Kind int
}

// Edge is the I-th outgoing edge of node From.
type Edge struct{ From, I int }

// Streett is the repository's one Streett refinement, with its lasso
// extractor: every emptiness, containment, classification and
// model-checking question asks it for the strongly connected sets J ∈ F
// of a graph region. It reuses its scratch across rounds, so it is not
// safe for concurrent use.
type Streett struct {
	G     Graph
	Pairs []Pair
	// Examine, when set, runs before each component is examined; an
	// error aborts the refinement (a caller's fault site sits here).
	Examine func() error
	// Round, when set, opens the span of a refinement round on a
	// component of the given size, ended with the rounds nested in it.
	Round func(size int) *obs.Span

	local []int32 // per node: its id in the numbered set, or -1
	off   []int   // local graph: l's in-component successors are adj[off[l]:off[l+1]]
	adj   []int
	keep  []bool     // per local node: survives the round
	taken []bool     // per edge kind: some edge of it stays inside the component
	pred  []pathStep // per path-search id: how the search reached it
	queue []int
}

// Refine examines the given strongly connected components in order —
// each polls ctx and charges one budget step — and refines the cyclic
// ones. A round checks the pairs over its component. When none is
// broken, found receives the component and the kinds of the pairs' edges
// inside it, which a loop through it takes. Otherwise only the nodes in
// the P-set of every broken pair survive; they are decomposed within the
// component alone (SCCsFuncCtx, on local ids in ascending node order, so
// the parts and their order are a graph-wide pass's) and refined in turn.
// found returns true to stop, and Refine then reports true.
func (s *Streett) Refine(ctx context.Context, comps [][]int, found func(set, need []int) bool) (bool, error) {
	for _, comp := range comps {
		if s.Examine != nil {
			if err := s.Examine(); err != nil {
				return false, err
			}
		}
		if err := budget.Poll(ctx, 1); err != nil {
			return false, err
		}
		if len(comp) == 1 && s.loopEdge(comp[0]) < 0 {
			continue // acyclic
		}
		if stop, err := s.round(ctx, comp, found); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// loopEdge returns the index of q's first edge to itself, or -1.
func (s *Streett) loopEdge(q int) int {
	return slices.Index(s.G.Succ[q], q)
}

func (s *Streett) round(ctx context.Context, comp []int, found func(set, need []int) bool) (bool, error) {
	if s.Round != nil {
		defer s.Round(len(comp)).End()
	}
	// Edge kinds need the local graph up front; a graph without them
	// builds it only to decompose a narrowed component.
	if s.G.Kind != nil {
		s.localGraph(comp)
	}
	narrowed := false
	for _, p := range s.Pairs {
		if p.Kind != NoKind && s.taken[p.Kind] || some(comp, p.R, true) || p.P != nil && !some(comp, p.P, false) {
			continue
		}
		if p.P == nil {
			return false, nil // nothing survives
		}
		if !narrowed {
			s.keep = slices.Grow(s.keep[:0], len(comp))[:len(comp)]
			for l := range s.keep {
				s.keep[l] = true
			}
		}
		narrowed = true
		for l, q := range comp {
			s.keep[l] = s.keep[l] && p.P[q]
		}
	}
	if !narrowed {
		var need []int
		for _, p := range s.Pairs {
			if p.Kind != NoKind && s.taken[p.Kind] {
				need = append(need, p.Kind)
			}
		}
		return found(comp, need), nil
	}
	if !slices.Contains(s.keep, true) {
		return false, nil
	}
	if s.G.Kind == nil {
		s.localGraph(comp)
	}
	off, adj := s.off, s.adj
	parts, err := SCCsFuncCtx(ctx, len(comp),
		func(l int) int { return off[l+1] - off[l] },
		func(l, i int) int { return adj[off[l]+i] },
		s.keep)
	if err != nil {
		return false, err
	}
	for _, part := range parts {
		for i, l := range part {
			part[i] = comp[l]
		}
	}
	return s.Refine(ctx, parts, found)
}

// some reports whether in[q] == want for some node of comp (nil in: the
// empty set).
func some(comp []int, in []bool, want bool) bool {
	for _, q := range comp {
		if (in != nil && in[q]) == want {
			return true
		}
	}
	return false
}

// number gives the set's nodes the local ids 0..len(set)-1 in ascending
// node order; the caller clears them with a deferred unnumber.
func (s *Streett) number(set []int) {
	if len(s.local) < len(s.G.Succ) {
		s.local = make([]int32, len(s.G.Succ))
		for i := range s.local {
			s.local[i] = -1
		}
	}
	for i, q := range set {
		s.local[q] = int32(i)
	}
}

func (s *Streett) unnumber(set []int) {
	for _, q := range set {
		s.local[q] = -1
	}
}

// localGraph builds the component's in-component edges, in edge order,
// and notes which edge kinds occur inside it.
func (s *Streett) localGraph(comp []int) {
	s.number(comp)
	defer s.unnumber(comp)
	edges := 0
	for _, q := range comp {
		edges += len(s.G.Succ[q])
	}
	s.off, s.adj = slices.Grow(s.off[:0], len(comp)+1), slices.Grow(s.adj[:0], edges)
	s.taken = slices.Grow(s.taken[:0], s.G.Kinds)[:s.G.Kinds]
	clear(s.taken)
	for _, q := range comp {
		s.off = append(s.off, len(s.adj))
		var kinds []int
		if s.G.Kind != nil {
			kinds = s.G.Kind[q]
		}
		for i, t := range s.G.Succ[q] {
			if l := s.local[t]; l >= 0 {
				s.adj = append(s.adj, int(l))
				if kinds != nil {
					s.taken[kinds[i]] = true
				}
			}
		}
	}
	s.off = append(s.off, len(s.adj))
}

// Lasso builds a lasso through a set Refine found: a shortest path from
// one of the sources to the anchor set[0] over the nodes of mask (nil:
// every node), then a loop from the anchor inside set that visits every
// node of set in order, takes the first edge inside set of each kind in
// need, and returns to the anchor, each leg a shortest path. A singleton
// loops through its first self-loop. A missing leg is ErrNoLasso.
func (s *Streett) Lasso(sources []int, mask []bool, set, need []int) (prefix, loop []Edge, err error) {
	anchor := set[0]
	prefix, ok := s.path(sources, anchor, mask, false)
	if len(set) > 1 || len(need) > 0 {
		s.number(set)
		defer s.unnumber(set)
	}
	cur := anchor
	visit := func(target int) {
		if target != cur {
			seg, found := s.path([]int{cur}, target, nil, true)
			loop, cur, ok = append(loop, seg...), target, ok && found
		}
	}
	for _, q := range set {
		visit(q)
	}
	for _, k := range need {
		e, found := s.edgeOfKind(set, k)
		if !found {
			return nil, nil, ErrNoLasso
		}
		visit(e.From)
		loop, cur = append(loop, e), s.G.Succ[e.From][e.I]
	}
	visit(anchor)
	if i := s.loopEdge(anchor); len(loop) == 0 && i >= 0 {
		loop = []Edge{{anchor, i}}
	}
	if !ok || len(loop) == 0 {
		return nil, nil, ErrNoLasso
	}
	return prefix, loop, nil
}

// edgeOfKind returns the first edge of kind k inside the numbered set, in
// set order and then edge order.
func (s *Streett) edgeOfKind(set []int, k int) (Edge, bool) {
	for _, q := range set {
		succ := s.G.Succ[q]
		for i, kind := range s.G.Kind[q] {
			if kind == k && s.local[succ[i]] >= 0 {
				return Edge{q, i}, true
			}
		}
	}
	return Edge{}, false
}

// pathStep is how path reached a node: through edge i of node from, or
// from = fromSource for a source and fromNowhere while unseen.
type pathStep struct{ from, i int32 }

const fromSource, fromNowhere = -1, -2

// path returns the edges of a shortest path from one of the sources to
// target by breadth-first search: within the numbered set, on its local
// ids, when local is set, and otherwise over the nodes of mask (nil:
// every node). Each node keeps the first edge that discovers it.
func (s *Streett) path(sources []int, target int, mask []bool, local bool) ([]Edge, bool) {
	id := func(q int) int {
		switch {
		case local:
			return int(s.local[q])
		case mask == nil || mask[q]:
			return q
		}
		return -1
	}
	if len(s.pred) < len(s.G.Succ) {
		s.pred = make([]pathStep, len(s.G.Succ))
		for i := range s.pred {
			s.pred[i] = pathStep{fromNowhere, 0}
		}
	}
	queue := s.queue[:0]
	defer func() {
		for _, q := range queue {
			s.pred[id(q)] = pathStep{fromNowhere, 0}
		}
		s.queue = queue
	}()
	for _, q := range sources {
		if i := id(q); i >= 0 && s.pred[i].from == fromNowhere {
			s.pred[i] = pathStep{fromSource, 0}
			queue = append(queue, q)
		}
	}
	for h := 0; h < len(queue); h++ {
		q := queue[h]
		if q == target {
			var out []Edge
			for e := s.pred[id(q)]; e.from != fromSource; e = s.pred[id(int(e.from))] {
				out = append(out, Edge{int(e.from), int(e.i)})
			}
			slices.Reverse(out)
			return out, true
		}
		for i, t := range s.G.Succ[q] {
			if j := id(t); j >= 0 && s.pred[j].from == fromNowhere {
				s.pred[j] = pathStep{int32(q), int32(i)}
				queue = append(queue, t)
			}
		}
	}
	return nil, false
}
