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
// system with a reachable fair cycle has one; AddIdle guarantees it). A
// search that fails to extract its lasso panics: without a context only
// that can fail it, and it must not read as "no fair computation".
func FairComputation(sys *ts.System) (Trace, bool) {
	props := sys.Props()
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return Trace{}, false
	}
	tr, ok, err := searchFairAccepting(context.Background(), sys, omega.Universal(alpha), props)
	if err != nil {
		panic(err)
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

// product is the synchronous product of the system and a property
// automaton: node = (system state, automaton state after reading it).
// Nodes are materialized lazily, in discovery order: nodes below closed
// have final edge lists, nodes at or above it form the unexplored
// frontier (nil edge lists). The closed region is therefore always a
// BFS-reachable prefix of the full product, and any fair accepting
// component found inside it is a genuine counterexample of the full
// product — the refinement inspects only component-internal structure
// (automaton pairs over the component's q states, fairness enabledness
// over its system states, and edges between component nodes, all of
// which are closed), so early exits before full construction are sound.
// Only the "property holds" verdict requires the whole reachable product.
type product struct {
	sys    *ts.System
	aut    *omega.Automaton
	props  []string
	in     *autkern.PairInterner // node i ↔ (system state, automaton state)
	succ   [][]int               // per node: its edges' targets
	trans  [][]int               // per node: its edges' transitions, indices into sys.Transitions()
	closed int                   // nodes 0..closed-1 have materialized edges
	lifted int                   // nodes 0..lifted-1 have their pair bits (see lift)
	inits  []int
	symIdx []int // per system state, the alphabet index in aut of its input symbol
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
	if i == len(p.succ) {
		p.succ = append(p.succ, nil)
		p.trans = append(p.trans, nil)
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
				ar.edges = append(ar.edges, p.get(s2, p.aut.StepIndex(nq, p.symIdx[s2])))
				ar.trans = append(ar.trans, ti)
			}
		}
		ar.edges = append(ar.edges, ar.trans...)
		ar.trans = ar.trans[:0]
		ar.ends = append(ar.ends, len(ar.edges))
	}
	ar.carve(p, first)
}

// edgeArena collects the edge lists of consecutive nodes in one backing
// array, each node's targets followed by their transitions: a wave
// allocates a few growing arrays instead of a few slices per node.
type edgeArena struct {
	edges []int
	ends  []int // node k's edges end at edges[ends[k]]
	trans []int // the node being closed: its edges' transitions
}

// carve hands the k-th collected targets and transitions to node first+k,
// each capped at its own edges.
func (ar *edgeArena) carve(p *product, first int) {
	lo := 0
	for k, hi := range ar.ends {
		mid := lo + (hi-lo)/2
		p.succ[first+k], p.trans[first+k] = ar.edges[lo:mid:mid], ar.edges[mid:hi:hi]
		lo = hi
	}
}

// searchFairAccepting looks for a fair computation of sys accepted by the
// automaton, returning it as a trace of system states. The product is
// explored in doubling waves, with the fair-SCC search re-run over the
// closed region after each wave, so a shallow counterexample is found
// after materializing a few dozen nodes; the full product is built only
// when no counterexample exists. The search runs under ctx's budget:
// each decomposition and each component examined charges one step.
func searchFairAccepting(ctx context.Context, sys *ts.System, aut *omega.Automaton, props []string) (Trace, bool, error) {
	p, err := newProduct(sys, aut, props)
	if err != nil {
		return Trace{}, false, err
	}
	sp := obs.Start("mc.search")
	defer sp.End()
	st := p.streett()
	waves := 0
	for limit := mcFirstWave; ; limit *= 2 {
		done, err := p.explore(ctx, limit)
		if err != nil {
			return Trace{}, false, err
		}
		waves++
		// One decomposition spans the closed region; the refinement
		// decomposes only inside the components it narrows.
		p.lift(st)
		allowed := make([]bool, p.numNodes())
		for i := 0; i < p.closed; i++ {
			allowed[i] = true
		}
		comps, err := autkern.SCCsFuncCtx(ctx, p.numNodes(),
			func(n int) int { return len(p.succ[n]) },
			func(n, i int) int { return p.succ[n][i] },
			allowed)
		if err != nil {
			return Trace{}, false, err
		}
		var set, need []int
		if _, err := st.Refine(ctx, comps, func(s, n []int) bool {
			set, need = s, n
			return true
		}); err != nil {
			return Trace{}, false, err
		}
		if set == nil && !done {
			continue
		}
		sp.Bool("found", set != nil).
			Int("nodes_materialized", p.closed).Int("waves", waves)
		if set == nil {
			return Trace{}, false, nil
		}
		if !done {
			sp.Bool("early_exit", true)
		}
		tr, err := p.trace(st, set, need)
		if err != nil {
			return Trace{}, false, err
		}
		return tr, true, nil
	}
}

// streett states the search's conditions for the kernel's refinement:
// the automaton's pairs and a justice or compassion pair per fair
// transition over the edges it labels (see autkern.Pair). lift fills in
// their node vectors. Each round's component size goes to the histogram
// and the round's span, so the shrinking candidate sets show in traces.
func (p *product) streett() *autkern.Streett {
	st := &autkern.Streett{
		G: autkern.Graph{Kinds: len(p.sys.Transitions())},
		Round: func(size int) *obs.Span {
			cntRefineRounds.Inc()
			histRefineSizes.Observe(int64(size))
			return obs.Start("mc.refine").Int("component", size)
		},
	}
	for i := 0; i < p.aut.NumPairs(); i++ {
		st.Pairs = append(st.Pairs, autkern.Pair{Kind: autkern.NoKind})
	}
	for ti, tr := range p.sys.Transitions() {
		if tr.Fair != ts.Unfair {
			st.Pairs = append(st.Pairs, autkern.Pair{Kind: ti})
		}
	}
	return st
}

// lift extends the pairs' node vectors over the nodes closed since the
// last call, the only nodes components hold: an automaton pair's bits come
// from the node's automaton state, a fair transition's mark the nodes
// with no edge of it, where it is disabled.
func (p *product) lift(st *autkern.Streett) {
	trans := p.sys.Transitions()
	enabled := make([]bool, len(trans))
	for ; p.lifted < p.closed; p.lifted++ {
		_, q := p.node(p.lifted)
		clear(enabled)
		for _, t := range p.trans[p.lifted] {
			enabled[t] = true
		}
		for i := range st.Pairs {
			switch pr := &st.Pairs[i]; {
			case pr.Kind == autkern.NoKind:
				r, pv := p.aut.PairVectors(i)
				pr.R, pr.P = append(pr.R, r[q]), append(pr.P, pv[q])
			case trans[pr.Kind].Fair == ts.Weak:
				pr.R = append(pr.R, !enabled[pr.Kind])
			default:
				pr.P = append(pr.P, !enabled[pr.Kind])
			}
		}
	}
	st.G.Succ, st.G.Kind = p.succ, p.trans
}

// lasso is the kernel's loop extractor, a variable so tests can make it
// fail.
var lasso = (*autkern.Streett).Lasso

// trace builds a counterexample from a fair accepting set: a path from
// an initial node to the set, then a loop covering every node of the
// set and one edge of every needed transition, as system states.
func (p *product) trace(st *autkern.Streett, set, need []int) (Trace, error) {
	prefix, loop, err := lasso(st, p.inits, nil, set, need)
	if err != nil {
		return Trace{}, err
	}
	src := set[0]
	if len(prefix) > 0 {
		src = prefix[0].From
	}
	state := func(n int) int { s, _ := p.node(n); return s }
	target := func(e autkern.Edge) int { return state(p.succ[e.From][e.I]) }
	tr := Trace{Prefix: []int{state(src)}}
	for _, e := range prefix {
		tr.Prefix = append(tr.Prefix, target(e))
	}
	for _, e := range loop {
		tr.Loop = append(tr.Loop, target(e))
	}
	return tr, nil
}
