package autkern

import (
	"context"
	"sort"

	"repro/internal/budget"
	"repro/internal/obs"
)

var (
	cntSCCRuns  = obs.NewCounter("autkern.scc.runs")
	cntSCCNodes = obs.NewCounter("autkern.scc.nodes")
)

// sccPollEvery is how many node visits a budget-governed SCC pass
// (SCCsFuncCtx) lets pass between context/budget polls.
const sccPollEvery = 256

// SCCsFunc computes the strongly connected components of a graph given
// by indexed edge access: node q has deg(q) outgoing edges, the i-th
// targeting edge(q, i). Only nodes with allowed[q] (nil means all)
// participate; every allowed node lands in exactly one component.
// Components are sorted internally and emitted in Tarjan completion
// order (reverse topological order of the condensation).
//
// This is the repository's single Tarjan implementation (iterative,
// explicit frame stack — no recursion depth limit); dfa, omega, mc and
// regex all route through it, directly or via Kernel.SCCs.
func SCCsFunc(n int, deg func(int) int, edge func(int, int) int, allowed []bool) [][]int {
	comps, _ := sccs(nil, n, deg, edge, allowed)
	return comps
}

// SCCsFuncCtx is SCCsFunc under resource governance: one budget step is
// charged for the pass and the context is polled periodically while
// visiting nodes, so an SCC pass over a huge product aborts promptly
// with ctx.Err() or budget.ErrBudgetExceeded.
func SCCsFuncCtx(ctx context.Context, n int, deg func(int) int, edge func(int, int) int, allowed []bool) ([][]int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return nil, err
	}
	return sccs(ctx, n, deg, edge, allowed)
}

// SCCsCtx is Kernel.SCCs under resource governance (see SCCsFuncCtx).
// The allowed == nil decomposition is served from (and fills) the
// kernel's cache.
func (kn *Kernel) SCCsCtx(ctx context.Context, allowed []bool) ([][]int, error) {
	if err := budget.Poll(ctx, 1); err != nil {
		return nil, err
	}
	if allowed == nil {
		if c := kn.sccsAll.Load(); c != nil {
			return *c, nil
		}
	}
	rows := kn.rows
	comps, err := sccs(ctx, len(rows),
		func(q int) int { return len(rows[q]) },
		func(q, i int) int { return rows[q][i] },
		allowed)
	if err != nil {
		return nil, err
	}
	if allowed == nil {
		kn.sccsAll.CompareAndSwap(nil, &comps)
		return *kn.sccsAll.Load(), nil
	}
	return comps, nil
}

// sccs is the iterative Tarjan core. A non-nil ctx enables periodic
// polling; with a nil ctx the error result is always nil.
func sccs(ctx context.Context, n int, deg func(int) int, edge func(int, int) int, allowed []bool) ([][]int, error) {
	cntSCCRuns.Inc()
	ok := func(q int) bool { return allowed == nil || allowed[q] }

	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	type frame struct {
		node int
		edge int
	}
	for root := 0; root < n; root++ {
		if !ok(root) || index[root] >= 0 {
			continue
		}
		var call []frame
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		call = append(call, frame{node: root})
		for len(call) > 0 {
			f := &call[len(call)-1]
			q := f.node
			if f.edge < deg(q) {
				to := edge(q, f.edge)
				f.edge++
				if !ok(to) {
					continue
				}
				if index[to] < 0 {
					index[to], low[to] = counter, counter
					counter++
					if ctx != nil && counter%sccPollEvery == 0 {
						if err := budget.Poll(ctx, 0); err != nil {
							cntSCCNodes.Add(int64(counter))
							return nil, err
						}
					}
					stack = append(stack, to)
					onStack[to] = true
					call = append(call, frame{node: to})
				} else if onStack[to] && index[to] < low[q] {
					low[q] = index[to]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				if low[q] < low[p] {
					low[p] = low[q]
				}
			}
			if low[q] == index[q] {
				var comp []int
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == q {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
		}
	}
	cntSCCNodes.Add(int64(counter))
	return comps, nil
}
