package autkern

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/obs"
)

// rowsGraph is the Graph of a transition table; with kinds > 0, edge i
// of each node has kind i mod kinds.
func rowsGraph(rows [][]int, kinds int) Graph {
	g := Graph{Succ: rows}
	if kinds > 0 {
		g.Kinds = kinds
		for _, row := range rows {
			kind := make([]int, len(row))
			for i := range kind {
				kind[i] = i % kinds
			}
			g.Kind = append(g.Kind, kind)
		}
	}
	return g
}

// deg and to give a Graph's edges the indexed access SCCsFunc takes.
func deg(g Graph) func(int) int     { return func(q int) int { return len(g.Succ[q]) } }
func to(g Graph) func(int, int) int { return func(q, i int) int { return g.Succ[q][i] } }

// randomRows returns n nodes with 1–3 random successors each.
func randomRows(rng *rand.Rand, n int) [][]int {
	rows := make([][]int, n)
	for q := range rows {
		for d := 1 + rng.Intn(3); d > 0; d-- {
			rows[q] = append(rows[q], rng.Intn(n))
		}
	}
	return rows
}

// randomPairs returns node pairs over random sets, plus, when kinds > 0,
// a weak-fairness-shaped pair (R = edges of kind 0 and a node set) and a
// strong-fairness-shaped one (R = edges of kind 1, P = a node set).
func randomPairs(rng *rand.Rand, n, count, kinds int) []Pair {
	set := func() []bool {
		v := make([]bool, n)
		for q := range v {
			v[q] = rng.Intn(3) == 0
		}
		return v
	}
	var out []Pair
	for i := 0; i < count; i++ {
		out = append(out, Pair{R: set(), P: set(), Kind: NoKind})
	}
	if kinds > 0 {
		out = append(out, Pair{R: set(), Kind: 0}, Pair{P: set(), Kind: 1})
	}
	return out
}

// naiveRefine is the refinement as the per-package copies ran it: each
// narrowed component is restricted by a graph-sized mask and decomposed
// graph-wide. It appends every accepting set and its needed kinds.
func naiveRefine(g Graph, pairs []Pair, allowed []bool, sets, needs *[][]int) {
	for _, comp := range SCCsFunc(len(g.Succ), deg(g), to(g), allowed) {
		in := Members(len(g.Succ), comp)
		taken := map[int]bool{}
		cyclic := false
		for _, q := range comp {
			for i, t := range g.Succ[q] {
				if in[t] {
					cyclic = true
					if g.Kind != nil {
						taken[g.Kind[q][i]] = true
					}
				}
			}
		}
		if !cyclic {
			continue
		}
		restricted := append([]bool(nil), in...)
		narrowed := false
		for _, p := range pairs {
			meets, inside := p.Kind != NoKind && taken[p.Kind], p.P != nil
			for _, q := range comp {
				meets = meets || p.R != nil && p.R[q]
				inside = inside && p.P[q]
			}
			if meets || inside {
				continue
			}
			narrowed = true
			for _, q := range comp {
				if p.P == nil || !p.P[q] {
					restricted[q] = false
				}
			}
		}
		if narrowed {
			survivors := false
			for _, k := range restricted {
				survivors = survivors || k
			}
			if survivors {
				naiveRefine(g, pairs, restricted, sets, needs)
			}
			continue
		}
		var need []int
		for _, p := range pairs {
			if p.Kind != NoKind && taken[p.Kind] {
				need = append(need, p.Kind)
			}
		}
		*sets = append(*sets, comp)
		*needs = append(*needs, need)
	}
}

// TestStreettMatchesGraphWideRefinement: the component-local refinement
// finds the same accepting sets, in the same order and with the same
// needed kinds, as graph-wide restriction and decomposition, and it runs
// the same number of decompositions over the same nodes.
func TestStreettMatchesGraphWideRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 300; c++ {
		n := 2 + rng.Intn(30)
		kinds := 0
		if c%2 == 1 {
			kinds = 2
		}
		g := rowsGraph(randomRows(rng, n), kinds)
		pairs := randomPairs(rng, n, rng.Intn(3), kinds)

		var wantSets, wantNeeds [][]int
		runs, nodes := cntSCCRuns.Value(), cntSCCNodes.Value()
		naiveRefine(g, pairs, nil, &wantSets, &wantNeeds)
		wantRuns, wantNodes := cntSCCRuns.Value()-runs, cntSCCNodes.Value()-nodes

		var gotSets, gotNeeds [][]int
		runs, nodes = cntSCCRuns.Value(), cntSCCNodes.Value()
		st := &Streett{G: g, Pairs: pairs}
		stopped, err := st.Refine(context.Background(), SCCsFunc(len(g.Succ), deg(g), to(g), nil), func(set, need []int) bool {
			gotSets = append(gotSets, append([]int(nil), set...))
			gotNeeds = append(gotNeeds, need)
			return false
		})
		if err != nil || stopped {
			t.Fatalf("case %d: Refine = %v, %v", c, stopped, err)
		}
		if !reflect.DeepEqual(gotSets, wantSets) || !reflect.DeepEqual(gotNeeds, wantNeeds) {
			t.Fatalf("case %d: sets %v needs %v, graph-wide %v %v", c, gotSets, gotNeeds, wantSets, wantNeeds)
		}
		if r, nd := cntSCCRuns.Value()-runs, cntSCCNodes.Value()-nodes; r != wantRuns || nd != wantNodes {
			t.Fatalf("case %d: %d passes over %d nodes, graph-wide %d over %d", c, r, nd, wantRuns, wantNodes)
		}
		for i, set := range gotSets {
			checkLasso(t, st, set, gotNeeds[i])
		}
	}
}

// checkLasso extracts a lasso through set from node 0 and checks that
// the prefix is a shortest path to the anchor, that the loop is a cycle
// inside set from the anchor covering set, and that it takes an edge of
// every needed kind.
func checkLasso(t *testing.T, st *Streett, set, need []int) {
	t.Helper()
	g := st.G
	dist := bfsDistances(g, 0)
	prefix, loop, err := st.Lasso([]int{0}, nil, set, need)
	if dist[set[0]] < 0 {
		if !errors.Is(err, ErrNoLasso) {
			t.Fatalf("set %v unreachable from 0, Lasso err = %v", set, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("set %v: %v", set, err)
	}
	if len(prefix) != dist[set[0]] {
		t.Fatalf("set %v: prefix %v, shortest has %d edges", set, prefix, dist[set[0]])
	}
	cur := 0
	for _, e := range prefix {
		if e.From != cur {
			t.Fatalf("set %v: prefix %v is not a path", set, prefix)
		}
		cur = g.Succ[e.From][e.I]
	}
	in := Members(len(g.Succ), set)
	visited := map[int]bool{}
	kinds := map[int]bool{}
	for _, e := range loop {
		if e.From != cur || !in[g.Succ[e.From][e.I]] {
			t.Fatalf("set %v: loop %v leaves the set or is not a path", set, loop)
		}
		if g.Kind != nil {
			kinds[g.Kind[e.From][e.I]] = true
		}
		cur = g.Succ[e.From][e.I]
		visited[cur] = true
	}
	if cur != set[0] || len(loop) == 0 || len(visited) != len(set) {
		t.Fatalf("set %v: loop %v does not cover the set and close", set, loop)
	}
	for _, k := range need {
		if !kinds[k] {
			t.Fatalf("set %v: loop %v takes no edge of kind %d", set, loop, k)
		}
	}
}

func bfsDistances(g Graph, src int) []int {
	dist := make([]int, len(g.Succ))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		q := queue[0]
		for _, t := range g.Succ[q] {
			if dist[t] < 0 {
				dist[t] = dist[q] + 1
				queue = append(queue, t)
			}
		}
	}
	return dist
}

// TestStreettFairnessPairs: on 0 ⇄ 1 with a self-loop on 1, where kind 1
// labels only 0→1 and kind 0 the rest, a strong pair on kind 1 that is
// disabled only at 1 keeps the whole cycle and asks the loop for an edge
// of kind 1; once no edge has kind 1, it narrows the cycle to the
// self-loop on 1. A weak pair on a kind no edge has, with R = ∅,
// rejects everything.
func TestStreettFairnessPairs(t *testing.T) {
	rows := [][]int{{1}, {0, 1}}
	g := rowsGraph(rows, 0)
	g.Kinds, g.Kind = 2, [][]int{{1}, {0, 0}}
	disabledAt1 := []bool{false, true}
	first := func(st *Streett) (set, need []int) {
		_, err := st.Refine(context.Background(), [][]int{{0, 1}}, func(s, n []int) bool {
			set, need = s, n
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return set, need
	}
	st := &Streett{G: g, Pairs: []Pair{{P: disabledAt1, Kind: 1}}}
	if set, need := first(st); !reflect.DeepEqual(set, []int{0, 1}) || !reflect.DeepEqual(need, []int{1}) {
		t.Fatalf("strong, taken: set %v need %v", set, need)
	}
	prefix, loop, err := st.Lasso([]int{0}, nil, []int{0, 1}, []int{1})
	if err != nil || len(prefix) != 0 || !reflect.DeepEqual(loop, []Edge{{0, 0}, {1, 0}, {0, 0}, {1, 0}}) {
		t.Fatalf("strong lasso: %v %v %v", prefix, loop, err)
	}
	g.Kind = [][]int{{0}, {0, 0}}
	st = &Streett{G: g, Pairs: []Pair{{P: disabledAt1, Kind: 1}}}
	if set, need := first(st); !reflect.DeepEqual(set, []int{1}) || need != nil {
		t.Fatalf("strong, not taken: set %v need %v", set, need)
	}
	if _, loop, err := st.Lasso([]int{0}, nil, []int{1}, nil); err != nil || !reflect.DeepEqual(loop, []Edge{{1, 1}}) {
		t.Fatalf("singleton lasso: %v %v", loop, err)
	}
	st = &Streett{G: g, Pairs: []Pair{{Kind: 1}}}
	if set, _ := first(st); set != nil {
		t.Fatalf("weak, never taken nor disabled: set %v", set)
	}
}

// TestLassoPrefixIsShortestPath: the prefix is a shortest path, found
// through the lowest-numbered edges, within the mask.
func TestLassoPrefixIsShortestPath(t *testing.T) {
	st := &Streett{G: rowsGraph(diamond().Rows(), 0)}
	prefix, _, err := st.Lasso([]int{0}, nil, []int{3}, nil)
	if err != nil || !reflect.DeepEqual(prefix, []Edge{{0, 0}, {1, 0}}) {
		t.Fatalf("prefix 0→3 = %v, %v", prefix, err)
	}
	prefix, _, err = st.Lasso([]int{3}, nil, []int{3}, nil)
	if err != nil || len(prefix) != 0 {
		t.Fatalf("trivial prefix = %v, %v", prefix, err)
	}
	if _, _, err := st.Lasso([]int{0}, nil, []int{4}, nil); !errors.Is(err, ErrNoLasso) {
		t.Fatalf("4 is unreachable, err = %v", err)
	}
	// Masking state 1 routes the path through 2.
	prefix, _, err = st.Lasso([]int{0}, []bool{true, false, true, true, false}, []int{3}, nil)
	if err != nil || !reflect.DeepEqual(prefix, []Edge{{0, 1}, {2, 0}}) {
		t.Fatalf("masked prefix = %v, %v", prefix, err)
	}
}

// TestLassoRejectsSetsThatAreNotStronglyConnected: the extractor reports
// ErrNoLasso, rather than a partial lasso, for a set it cannot loop
// through — one not strongly connected, a singleton without a self-loop,
// or one missing an edge of a needed kind.
func TestLassoRejectsSetsThatAreNotStronglyConnected(t *testing.T) {
	// Kind 1 labels only the bridge 1 → 2.
	g := rowsGraph(twoCycles().Rows(), 0)
	g.Kinds, g.Kind = 2, [][]int{{0, 0}, {0, 1}, {0, 0}, {0, 0}}
	st := &Streett{G: g}
	for _, c := range []struct {
		set, need []int
	}{
		{[]int{1, 2}, nil},    // 1 → 2 but not back
		{[]int{0, 1, 2}, nil}, // 2 never returns
		{[]int{0, 1}, []int{1}},
	} {
		if _, _, err := st.Lasso([]int{0}, nil, c.set, c.need); !errors.Is(err, ErrNoLasso) {
			t.Errorf("set %v need %v: err = %v, want ErrNoLasso", c.set, c.need, err)
		}
	}
	st = &Streett{G: rowsGraph(diamond().Rows(), 0)}
	if _, _, err := st.Lasso([]int{0}, nil, []int{1}, nil); !errors.Is(err, ErrNoLasso) {
		t.Errorf("acyclic singleton: err = %v, want ErrNoLasso", err)
	}
}

// TestRefineGovernance: each component examined runs Examine and charges
// one step, each nested decomposition charges one more, and an abort
// from either is returned, not read as "no accepting set".
func TestRefineGovernance(t *testing.T) {
	// Two cycles; the pair rejects {0,1} outright and narrows {2,3} to
	// the self-loop on 3.
	rows := [][]int{{1}, {0}, {3}, {2, 3}}
	g := rowsGraph(rows, 0)
	comps := SCCsFunc(4, deg(g), to(g), nil) // [2 3] then [0 1]
	examined, rounds := 0, 0
	st := &Streett{
		G:       g,
		Pairs:   []Pair{{P: Members(4, []int{3}), Kind: NoKind}},
		Examine: func() error { examined++; return nil },
		Round:   func(int) *obs.Span { rounds++; return nil },
	}
	b := budget.New(0, 1<<40)
	var found [][]int
	_, err := st.Refine(budget.With(context.Background(), b), comps, func(set, _ []int) bool {
		found = append(found, set)
		return false
	})
	if err != nil || !reflect.DeepEqual(found, [][]int{{3}}) {
		t.Fatalf("found %v, err %v", found, err)
	}
	// Examined: {2,3}, its part {3}, {0,1}. One nested decomposition.
	if examined != 3 || rounds != 3 || b.Steps() != 4 {
		t.Fatalf("examined %d, rounds %d, steps %d; want 3, 3, 4", examined, rounds, b.Steps())
	}
	for cap := int64(1); cap < 4; cap++ {
		ctx := budget.With(context.Background(), budget.New(0, cap))
		if _, err := st.Refine(ctx, comps, func(_, _ []int) bool { return false }); !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("cap %d: err = %v, want ErrBudgetExceeded", cap, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Refine(ctx, comps, func(_, _ []int) bool { return false }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v", err)
	}
	boom := errors.New("boom")
	st.Examine = func() error { return boom }
	if _, err := st.Refine(context.Background(), comps, func(_, _ []int) bool { return false }); !errors.Is(err, boom) {
		t.Fatalf("Examine error: err = %v", err)
	}
}
