// Package mc is the model checker connecting the paper's two halves: it
// decides whether every fair computation of a transition system has a
// temporal property, by intersecting the system with an automaton for the
// negated property and searching the product for a fair accepting cycle
// (a counterexample computation).
//
// Alongside the automata-based checker, the package exposes the two proof
// principles the paper associates with the hierarchy: the invariance
// (implicit-induction) rule for safety and a well-founded-ranking
// extraction for guarantee/response properties.
package mc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/ts"
)

var (
	cntVerifyCalls  = obs.NewCounter("mc.verify.calls")
	cntRefineRounds = obs.NewCounter("mc.refine.rounds")
	cntLazyNodes    = obs.NewCounter("mc.lazy.nodes_materialized")
	histRefineSizes = obs.NewHistogram("mc.refine.component_size")
)

// mcFirstWave is the node bound of the first lazy exploration wave of the
// fair product; each following wave doubles it (see searchFairAccepting).
const mcFirstWave = 64

// Trace is a lasso-shaped computation of the system: the states of the
// transient prefix followed by the repeating loop.
type Trace struct {
	Prefix []int
	Loop   []int
}

// Names renders the trace with state names.
func (t Trace) Names(sys *ts.System) (prefix, loop []string) {
	for _, s := range t.Prefix {
		prefix = append(prefix, sys.StateName(s))
	}
	for _, s := range t.Loop {
		loop = append(loop, sys.StateName(s))
	}
	return prefix, loop
}

// Result reports a verification outcome. When the property fails,
// Counterexample is a fair computation violating it.
type Result struct {
	Holds          bool
	Counterexample *Trace
}

// Verify decides sys ⊨ f: every fair computation of the system satisfies
// the formula. The negation is compiled to a deterministic Streett
// automaton (falling back to single-pair complementation of the positive
// automaton when ¬f is outside the normalizable fragment), and the fair
// product is checked for emptiness.
func Verify(sys *ts.System, f ltl.Formula) (Result, error) {
	return VerifyCtx(context.Background(), sys, f)
}

// VerifyCtx is Verify under the caller's context: the negation
// automaton's constructions charge the budget it carries, and the root
// span takes its TraceID. The inner stages (negation, product, search,
// refinement) nest under this span and inherit the trace implicitly.
func VerifyCtx(ctx context.Context, sys *ts.System, f ltl.Formula) (Result, error) {
	sp := obs.StartIn(ctx, "mc.verify").Stringer("formula", f).Int("sys_states", sys.NumStates())
	defer sp.End()
	cntVerifyCalls.Inc()
	// The product reads each state's valuation projected onto the
	// formula's propositions (sorted, deduplicated).
	props := ltl.Props(f)
	neg, err := negationAutomaton(ctx, f, props)
	if err != nil {
		return Result{}, err
	}
	trace, found, err := searchFairAccepting(ctx, sys, neg, props)
	if err != nil {
		return Result{}, err
	}
	sp.Bool("holds", !found)
	if found {
		return Result{Holds: false, Counterexample: &trace}, nil
	}
	return Result{Holds: true}, nil
}

// FairComputation returns some fair computation of the system (every
// system with a reachable fair cycle has one; AddIdle guarantees it).
func FairComputation(sys *ts.System) (Trace, bool) {
	props := sys.Props()
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return Trace{}, false
	}
	tr, ok, err := searchFairAccepting(context.Background(), sys, omega.Universal(alpha), props)
	if err != nil {
		return Trace{}, false
	}
	return tr, ok
}

// negationAutomaton builds an automaton for ¬f over 2^props, charging
// its constructions to the budget ctx carries. Only a ¬f outside the
// normalizable fragment falls back to complementing f's automaton; any
// other failure (cancellation, budget) is returned unchanged.
func negationAutomaton(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	sp := obs.StartIn(ctx, "mc.negation").Stringer("formula", f)
	defer sp.End()
	neg, errNeg := core.CompileFormulaCtx(ctx, ltl.Not{F: f}, props)
	if errNeg == nil {
		sp.Int("states", neg.NumStates()).Int("pairs", neg.NumPairs())
		return neg, nil
	}
	if !errors.Is(errNeg, core.ErrNotNormalizable) {
		return nil, errNeg
	}
	pos, errPos := core.CompileFormulaCtx(ctx, f, props)
	if errPos != nil {
		return nil, fmt.Errorf("mc: cannot compile ¬f (%w) nor f (%w)", errNeg, errPos)
	}
	comp, err := pos.ComplementSinglePair()
	if err != nil {
		return nil, fmt.Errorf("mc: ¬f not normalizable (%v) and f's automaton is multi-pair (%v)", errNeg, err)
	}
	sp.Int("states", comp.NumStates()).Int("pairs", comp.NumPairs()).Bool("complemented", true)
	return comp, nil
}

// prodEdge is an edge of the fair product graph.
type prodEdge struct {
	to    int
	trans int // index into sys.Transitions()
}

// product is the synchronous product of the system and a property
// automaton: node = (system state, automaton state after reading it).
// Nodes are materialized lazily, in discovery order: nodes below closed
// have final edge lists, nodes at or above it form the unexplored
// frontier (nil edge lists). The closed region is therefore always a
// BFS-reachable prefix of the full product, and any fair accepting
// component found inside it is a genuine counterexample of the full
// product — refine inspects only component-internal structure (automaton
// pairs over the component's q states, fairness enabledness over its
// system states, and edges between component nodes, all of which are
// closed), so early exits before full construction are sound. Only the
// "property holds" verdict requires the whole reachable product.
type product struct {
	sys    *ts.System
	aut    *omega.Automaton
	props  []string
	in     *autkern.PairInterner // node i ↔ (system state, automaton state)
	edges  [][]prodEdge
	closed int // nodes 0..closed-1 have materialized edges
	inits  []int
	symIdx []int // per system state, the alphabet index in aut of its input symbol
	sc     scratch
}

// scratch is the working memory the fair-cycle search reuses across its
// refinement rounds. One search runs many rounds, most on components of a
// few nodes, so a round touches only its component and that component's
// edges: the per-product-node array is allocated once and a round reads
// and writes only its own nodes' entries.
type scratch struct {
	local []int32 // per product node: its id in the numbered component, or -1
	off   []int   // local graph: node i's in-component successors are adj[off[i]:off[i+1]]
	adj   []int
	keep  []bool // per local node: survives the round's restriction
	taken []bool // per transition: some edge of it stays inside the component
}

// number gives the component's nodes the local ids 0..len(comp)-1 in
// ascending global order (comp is sorted); unnumber must follow before
// another component is numbered.
func (p *product) number(comp []int) {
	for len(p.sc.local) < p.numNodes() {
		p.sc.local = append(p.sc.local, -1)
	}
	for i, n := range comp {
		p.sc.local[n] = int32(i)
	}
}

// unnumber clears the local ids set by number.
func (p *product) unnumber(comp []int) {
	for _, n := range comp {
		p.sc.local[n] = -1
	}
}

// localGraph builds the component's local graph in p.sc: each node's
// edges to other component nodes, in edge order, and which transitions
// have an edge inside the component.
func (p *product) localGraph(comp []int) {
	sc := &p.sc
	p.number(comp)
	sc.off, sc.adj = sc.off[:0], sc.adj[:0]
	sc.taken = resetBools(sc.taken, len(p.sys.Transitions()), false)
	for _, n := range comp {
		sc.off = append(sc.off, len(sc.adj))
		for _, e := range p.edges[n] {
			if l := sc.local[e.to]; l >= 0 {
				sc.adj = append(sc.adj, int(l))
				sc.taken[e.trans] = true
			}
		}
	}
	sc.off = append(sc.off, len(sc.adj))
	p.unnumber(comp)
}

// resetBools returns b resized to n with every entry set to v, reusing
// its storage when it is large enough.
func resetBools(b []bool, n int, v bool) []bool {
	if cap(b) < n {
		b = make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = v
	}
	return b
}

// node returns the (system state, automaton state) of product node i.
func (p *product) node(i int) (s, q int) { return p.in.Pair(i) }

func (p *product) numNodes() int { return p.in.Len() }

func newProduct(sys *ts.System, aut *omega.Automaton, props []string) (*product, error) {
	sp := obs.Start("mc.product").Int("sys_states", sys.NumStates()).Int("aut_states", aut.NumStates())
	defer sp.End()
	p := &product{sys: sys, aut: aut, props: props, in: autkern.NewPairInterner()}
	symIdx := byValuation(sys, props, func(s int) (int, error) {
		sym := sys.Symbol(s, props)
		i := aut.Alphabet().Index(sym)
		if i < 0 {
			return 0, fmt.Errorf("mc: state %q symbol %q not in property alphabet", sys.StateName(s), sym)
		}
		return i, nil
	})
	p.symIdx = make([]int, sys.NumStates())
	for s := range p.symIdx {
		i, err := symIdx(s)
		if err != nil {
			return nil, err
		}
		p.symIdx[s] = i
	}
	for _, s0 := range sys.Init() {
		q0 := aut.StepIndex(aut.Start(), p.symIdx[s0])
		p.inits = append(p.inits, p.get(s0, q0))
	}
	return p, nil
}

// byValuation memoizes f, a function of a state's valuation of props
// alone, on that valuation: one 0/1 byte per proposition, in props order.
func byValuation[T any](sys *ts.System, props []string, f func(s int) (T, error)) func(s int) (T, error) {
	memo := map[string]T{}
	key := make([]byte, len(props))
	return func(s int) (T, error) {
		v := sys.Valuation(s)
		for i, p := range props {
			key[i] = 0
			if v.Holds(p) {
				key[i] = 1
			}
		}
		if x, ok := memo[string(key)]; ok {
			return x, nil
		}
		x, err := f(s)
		if err == nil {
			memo[string(key)] = x
		}
		return x, err
	}
}

// get interns a product node, returning its index; new nodes join the
// frontier with no edges.
func (p *product) get(s, q int) int {
	i := p.in.Intern(s, q)
	if i == len(p.edges) {
		p.edges = append(p.edges, nil)
	}
	return i
}

// explore materializes node edges in discovery order until either the
// whole reachable product is closed (returning true) or at least limit
// nodes are. Each iteration closes one wave, the frontier discovered so
// far capped at limit, after one cancellation/budget poll; the search
// itself charges no budget (the automaton constructions feeding it do).
func (p *product) explore(ctx context.Context, limit int) (bool, error) {
	before := p.closed
	defer func() {
		if d := p.closed - before; d > 0 {
			cntLazyNodes.Add(int64(d))
		}
	}()
	for p.closed < p.numNodes() && p.closed < limit {
		if err := budget.Poll(ctx, 0); err != nil {
			return false, err
		}
		p.exploreSeq(min(p.numNodes(), limit))
	}
	return p.closed == p.numNodes(), nil
}

// exploreSeq closes nodes up to waveEnd.
func (p *product) exploreSeq(waveEnd int) {
	first := p.closed
	var ar edgeArena
	for ; p.closed < waveEnd; p.closed++ {
		ns, nq := p.node(p.closed)
		for ti, tr := range p.sys.Transitions() {
			for _, s2 := range tr.SuccessorsShared(ns) {
				q2 := p.aut.StepIndex(nq, p.symIdx[s2])
				ar.edges = append(ar.edges, prodEdge{to: p.get(s2, q2), trans: ti})
			}
		}
		ar.ends = append(ar.ends, len(ar.edges))
	}
	ar.carve(p.edges, first)
}

// edgeArena collects the edge lists of consecutive nodes in one backing
// array: a wave allocates a few growing arrays instead of a few slices
// per node.
type edgeArena struct {
	edges []prodEdge
	ends  []int // node k's edges end at edges[ends[k]]
}

// carve hands the k-th collected list to dst[first+k], capped at its own
// edges.
func (ar *edgeArena) carve(dst [][]prodEdge, first int) {
	lo := 0
	for k, hi := range ar.ends {
		dst[first+k] = ar.edges[lo:hi:hi]
		lo = hi
	}
}

// searchFairAccepting looks for a fair computation of sys accepted by the
// automaton, returning it as a trace of system states. The product is
// explored in doubling waves, with the fair-SCC search re-run over the
// closed region after each wave, so a shallow counterexample is found
// after materializing a few dozen nodes; the full product is built only
// when no counterexample exists.
func searchFairAccepting(ctx context.Context, sys *ts.System, aut *omega.Automaton, props []string) (Trace, bool, error) {
	p, err := newProduct(sys, aut, props)
	if err != nil {
		return Trace{}, false, err
	}
	sp := obs.Start("mc.search")
	defer sp.End()
	waves := 0
	for limit := mcFirstWave; ; limit *= 2 {
		done, err := p.explore(ctx, limit)
		if err != nil {
			return Trace{}, false, err
		}
		waves++
		comp, need := p.findFairAcceptingSCC()
		if comp == nil && !done {
			continue
		}
		sp.Bool("found", comp != nil).
			Int("nodes_materialized", p.closed).Int("waves", waves)
		if comp == nil {
			return Trace{}, false, nil
		}
		if !done {
			sp.Bool("early_exit", true)
		}
		tr, ok := p.extractTrace(comp, need)
		return tr, ok, nil
	}
}

// findFairAcceptingSCC searches the closed region for a strongly
// connected node set C such that (i) a run with inf = C satisfies the
// automaton's Streett pairs, (ii) every weakly fair transition is either
// disabled somewhere in C or taken by an edge inside C, and (iii) every
// strongly fair transition is either enabled nowhere in C or taken inside
// C. It returns the set and the transition indices whose edges the
// witness loop must include. Only this first decomposition spans the
// closed region; each refinement round decomposes its own component.
func (p *product) findFairAcceptingSCC() ([]int, []int) {
	allowed := make([]bool, p.numNodes())
	for i := 0; i < p.closed; i++ {
		allowed[i] = true
	}
	deg := func(q int) int { return len(p.edges[q]) }
	edge := func(q, i int) int { return p.edges[q][i].to }
	return p.firstFair(autkern.SCCsFunc(p.numNodes(), deg, edge, allowed))
}

// firstFair refines the cyclic components in order and returns the first
// fair accepting set found.
func (p *product) firstFair(comps [][]int) ([]int, []int) {
	for _, comp := range comps {
		if !p.cyclic(comp) {
			continue
		}
		if set, need := p.refine(comp); set != nil {
			return set, need
		}
	}
	return nil, nil
}

// cyclic reports whether a strongly connected component carries a cycle:
// every component of two or more nodes does, a single node only through
// a self-loop.
func (p *product) cyclic(comp []int) bool {
	if len(comp) > 1 {
		return true
	}
	for _, e := range p.edges[comp[0]] {
		if e.to == comp[0] {
			return true
		}
	}
	return false
}

// refine is one refinement round on a component: it checks the Streett
// pairs and fairness requirements, and when they rule nodes out it
// decomposes the surviving nodes of this component alone and refines the
// parts. The decomposition runs on component-local ids assigned in
// ascending global order, so Tarjan visits nodes and edges exactly as it
// would on the whole product restricted to the survivors: the parts, and
// their order, are the same.
func (p *product) refine(comp []int) ([]int, []int) {
	// One refinement round: record its component size so the shrinking
	// sequence of candidate sets is visible in traces.
	sp := obs.Start("mc.refine").Int("component", len(comp))
	defer sp.End()
	cntRefineRounds.Inc()
	histRefineSizes.Observe(int64(len(comp)))
	p.localGraph(comp)
	sc := &p.sc
	sc.keep = resetBools(sc.keep, len(comp), true)
	narrowed := false
	var needEdges []int

	// Streett pairs of the automaton component.
	for i := 0; i < p.aut.NumPairs(); i++ {
		r, pr := p.aut.PairVectors(i)
		meetsR, inP := false, true
		for _, n := range comp {
			_, q := p.node(n)
			if r[q] {
				meetsR = true
			}
			if !pr[q] {
				inP = false
			}
		}
		if !meetsR && !inP {
			for l, n := range comp {
				if _, q := p.node(n); !pr[q] {
					sc.keep[l] = false
					narrowed = true
				}
			}
		}
	}

	// Fairness requirements.
	for ti, tr := range p.sys.Transitions() {
		if tr.Fair == ts.Unfair || sc.taken[ti] {
			continue
		}
		enabledSomewhere, enabledEverywhere := false, true
		for _, n := range comp {
			if s, _ := p.node(n); tr.Enabled(s) {
				enabledSomewhere = true
			} else {
				enabledEverywhere = false
			}
		}
		switch tr.Fair {
		case ts.Weak:
			if enabledEverywhere {
				// Continuously enabled, never taken, and no sub-component
				// can disable it: this component is hopeless.
				return nil, nil
			}
		case ts.Strong:
			if enabledSomewhere {
				// Restrict to nodes where the transition is disabled.
				for l, n := range comp {
					if s, _ := p.node(n); tr.Enabled(s) {
						sc.keep[l] = false
						narrowed = true
					}
				}
			}
		}
	}

	if !narrowed {
		// comp satisfies everything; the witness loop must include one
		// edge of every fair transition enabled within comp.
		for ti, tr := range p.sys.Transitions() {
			if tr.Fair == ts.Unfair {
				continue
			}
			enabled := false
			for _, n := range comp {
				if s, _ := p.node(n); tr.Enabled(s) {
					enabled = true
					break
				}
			}
			if enabled && sc.taken[ti] {
				needEdges = append(needEdges, ti)
			}
		}
		return comp, needEdges
	}
	count := 0
	for _, ok := range sc.keep {
		if ok {
			count++
		}
	}
	if count == 0 {
		return nil, nil
	}
	off, adj := sc.off, sc.adj
	parts := autkern.SCCsFunc(len(comp),
		func(l int) int { return off[l+1] - off[l] },
		func(l, i int) int { return adj[off[l]+i] },
		sc.keep)
	for _, part := range parts {
		for i, l := range part {
			part[i] = comp[l]
		}
	}
	return p.firstFair(parts)
}

// extractTrace builds a lasso of system states: a path from an initial
// node to the component, then a loop covering every node of the component
// and at least one edge of every needed transition.
func (p *product) extractTrace(comp []int, needTrans []int) (Trace, bool) {
	anchor := comp[0]
	prefixNodes, ok := p.shortestPath(p.inits, anchor, p.numNodes(), func(n int) int { return n })
	if !ok {
		return Trace{}, false
	}
	// The loop stays inside the component, so its searches run on the
	// component's local ids.
	p.number(comp)
	defer p.unnumber(comp)
	local := func(n int) int { return int(p.sc.local[n]) }
	// Build the loop: visit every node of comp, then traverse one edge of
	// each needed transition, then return to the anchor.
	var loop []int
	cur := anchor
	visit := func(target int) bool {
		seg, ok := p.shortestPath([]int{cur}, target, len(comp), local)
		if !ok {
			return false
		}
		loop = append(loop, seg[1:]...) // drop the duplicated start node
		cur = target
		return true
	}
	for _, n := range comp {
		if !visit(n) {
			return Trace{}, false
		}
	}
	for _, ti := range needTrans {
		// Find an edge of transition ti inside comp and route through it.
		found := false
		for _, from := range comp {
			for _, e := range p.edges[from] {
				if e.trans == ti && local(e.to) >= 0 {
					if !visit(from) {
						return Trace{}, false
					}
					loop = append(loop, e.to)
					cur = e.to
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return Trace{}, false
		}
	}
	if !visit(anchor) {
		return Trace{}, false
	}
	if len(loop) == 0 {
		// Singleton component with a self-loop.
		if !p.cyclic(comp) {
			return Trace{}, false
		}
		loop = []int{anchor}
	}
	tr := Trace{}
	for _, n := range prefixNodes {
		s, _ := p.node(n)
		tr.Prefix = append(tr.Prefix, s)
	}
	for _, n := range loop {
		s, _ := p.node(n)
		tr.Loop = append(tr.Loop, s)
	}
	return tr, true
}

// shortestPath returns a node path (inclusive of endpoints) from any of
// the sources to the target. id numbers the nodes the path may use
// densely below size and maps every other node to -1.
func (p *product) shortestPath(sources []int, target, size int, id func(int) int) ([]int, bool) {
	prev := make([]int, size) // by id: the predecessor node, -1 for a source, -2 unseen
	for i := range prev {
		prev[i] = -2
	}
	var queue []int
	for _, s := range sources {
		if i := id(s); i >= 0 && prev[i] == -2 {
			prev[i] = -1
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == target {
			var rev []int
			for cur := n; cur != -1; cur = prev[id(cur)] {
				rev = append(rev, cur)
			}
			out := make([]int, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for _, e := range p.edges[n] {
			if i := id(e.to); i >= 0 && prev[i] == -2 {
				prev[i] = n
				queue = append(queue, e.to)
			}
		}
	}
	return nil, false
}
