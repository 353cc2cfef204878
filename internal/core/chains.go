package core

import (
	"context"

	"repro/internal/omega"
)

// This file computes the exact position of an automaton-specifiable
// property in the two infinite subhierarchies, following Wagner's
// alternating-chain characterization quoted at the end of §5.1:
//
//	The minimal k such that the property is specifiable by a Streett
//	automaton with |L| = k is the maximal n admitting a chain of
//	accessible cycles B₁ ⊂ J₁ ⊂ B₂ ⊂ J₂ ⊂ ⋯ ⊂ Jₙ with Bᵢ ∉ F, Jᵢ ∈ F.
//
// The chain search replaces arbitrary cycles by canonical "maximal"
// representatives: every accepting cycle inside a region is contained in
// a component found by the Streett-emptiness refinement, and every
// rejecting cycle in an accepting component is contained in a component
// of some R_i-avoiding restriction that leaves P_i. Substituting a
// same-membership superset preserves chains, so the recursion computes
// the true maximum.

// maximalAcceptingCycles returns canonical accepting cycles within the
// allowed region: every accepting cycle is a subset of one of them.
func maximalAcceptingCycles(a *omega.Automaton, allowed []bool) [][]int {
	var out [][]int
	_, err := a.AcceptingCycles(context.Background(), allowed, func(j []int) bool {
		out = append(out, j)
		return false
	})
	if err != nil {
		panic(err) // fault injection only: a partial list understates the rank
	}
	return out
}

// maximalRejectingCycles returns canonical rejecting cycles within the
// allowed region: every rejecting cycle is a subset of one of them.
func maximalRejectingCycles(a *omega.Automaton, allowed []bool) [][]int {
	var out [][]int
	for _, comp := range a.SCCs(allowed) {
		if !a.IsCyclic(comp) {
			continue
		}
		if len(a.BrokenPairs(comp)) > 0 {
			out = append(out, comp)
			continue
		}
		// comp is accepting; rejecting subcycles avoid some R_i while
		// leaving P_i.
		// A background context carries no budget: nothing can abort it.
		a.RejectingCycles(context.Background(), a.StateSet(comp), func(b []int) bool {
			out = append(out, b)
			return false
		})
	}
	return out
}

// chainAcc returns the length of the longest alternating chain of
// accessible cycles within allowed whose outermost element is accepting.
func chainAcc(a *omega.Automaton, allowed []bool) int {
	best := 0
	for _, m := range maximalAcceptingCycles(a, allowed) {
		if l := 1 + chainRej(a, a.StateSet(m)); l > best {
			best = l
		}
	}
	return best
}

// chainRej is the dual: outermost element rejecting.
func chainRej(a *omega.Automaton, allowed []bool) int {
	best := 0
	for _, m := range maximalRejectingCycles(a, allowed) {
		if l := 1 + chainAcc(a, a.StateSet(m)); l > best {
			best = l
		}
	}
	return best
}

// reactivityRank computes the minimal number of Streett pairs needed to
// specify the property: max(1, ⌊chainAcc/2⌋). A chain of length 2n with
// accepting outermost and rejecting innermost element witnesses rank n;
// properties without even a B ⊂ J chain (persistence properties) still
// need one pair.
func reactivityRank(a *omega.Automaton, reach []bool) int {
	n := chainAcc(a, reach) / 2
	if n < 1 {
		return 1
	}
	return n
}

// obligationRank locates an obligation property inside the strict Obl_k
// hierarchy. For an obligation property every accessible cyclic strongly
// connected component is "pure" — all its cycles share one acceptance
// status (a mixed component would contain nested accepting/rejecting
// cycles, contradicting membership in recurrence ∩ persistence). The rank
// is the maximal number of rejecting→accepting alternations over the
// cyclic components met along a path of the condensation DAG (at least
// 1): each alternation forces one more conjunct A(Φᵢ) ∪ E(Ψᵢ).
func obligationRank(a *omega.Automaton, reach []bool) int {
	n := a.NumStates()
	comps := a.SCCs(reach)
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	kind := make([]int, len(comps)) // 0 neutral (acyclic), 1 accepting, 2 rejecting
	for ci, comp := range comps {
		for _, q := range comp {
			compOf[q] = ci
		}
		if !a.IsCyclic(comp) {
			continue
		}
		if len(a.BrokenPairs(comp)) == 0 {
			kind[ci] = 1
		} else {
			kind[ci] = 2
		}
	}
	// Condensation edges.
	succs := make([]map[int]bool, len(comps))
	for i := range succs {
		succs[i] = map[int]bool{}
	}
	for q := 0; q < n; q++ {
		if !reach[q] || compOf[q] < 0 {
			continue
		}
		for _, next := range a.Successors(q) {
			if reach[next] && compOf[next] != compOf[q] && compOf[next] >= 0 {
				succs[compOf[q]][compOf[next]] = true
			}
		}
	}
	// DP over the DAG: best[ci][last] = max rej→acc alternations on a path
	// starting at ci, where last ∈ {0: nothing pending, 1: a rejecting
	// component has been seen since the last accepting one}.
	memo := make([]int, 2*len(comps)) // flat [ci][pendingRej] table, -1 = unset
	for i := range memo {
		memo[i] = -1
	}
	var dp func(ci, pendingRej int) int
	dp = func(ci, pendingRej int) int {
		key := 2*ci + pendingRej
		if v := memo[key]; v >= 0 {
			return v
		}
		memo[key] = 0 // break cycles defensively (the condensation is acyclic)
		here := 0
		next := pendingRej
		switch kind[ci] {
		case 1: // accepting
			if pendingRej == 1 {
				here = 1
			}
			next = 0
		case 2: // rejecting
			next = 1
		}
		best := 0
		for s := range succs[ci] {
			if v := dp(s, next); v > best {
				best = v
			}
		}
		memo[key] = here + best
		return here + best
	}
	start := compOf[a.Start()]
	rank := 0
	if start >= 0 {
		rank = dp(start, 0)
	}
	if rank < 1 {
		rank = 1
	}
	return rank
}
