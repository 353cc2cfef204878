// Package compile translates past temporal formulas into deterministic
// finite automata: the [LPZ85]/[Zuc86] construction behind the paper's
// Proposition 5.3. The DFA for a past formula p accepts exactly the finite
// words that end-satisfy p, so lang.FromDFA of the result is the paper's
// finitary property esat(p), and the four temporal prefixes □, ◇, □◇, ◇□
// become lang.A, lang.E, lang.R, lang.P of it.
package compile

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/dfa"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
)

var (
	cntPastDFACalls  = obs.NewCounter("compile.past2dfa.calls")
	cntPastDFAStates = obs.NewCounter("compile.past2dfa.states")
)

// ErrTooManyStates is returned when the subset construction exceeds its
// state cap. It unwraps to budget.ErrBudgetExceeded: the package-local
// cap is one instance of the pipeline-wide budget discipline, so callers
// can match either the specific or the general sentinel.
var ErrTooManyStates = fmt.Errorf("compile: state cap exceeded: %w", budget.ErrBudgetExceeded)

// ErrNotPast is returned when a formula expected to be a past formula
// contains future operators.
var ErrNotPast = errors.New("compile: not a past formula")

// DefaultStateCap bounds the number of DFA states materialized by
// PastToDFA before it gives up. The closure construction can in principle
// reach 2^|subformulas| states; real specification formulas stay tiny.
const DefaultStateCap = 1 << 16

// PastToDFA compiles a past formula into a complete deterministic
// automaton over the valuation alphabet 2^props accepting exactly the
// non-empty finite words that end-satisfy the formula. props must cover
// the formula's propositions; pass nil to use exactly those.
//
// States are the reachable truth assignments to the formula's past
// closure: the value of every past subformula at the current position is
// determined by its value at the previous position and the current
// valuation, so the assignment vector is a deterministic finite memory.
func PastToDFA(p ltl.Formula, props []string) (*dfa.DFA, error) {
	return PastToDFACapped(p, props, DefaultStateCap)
}

// PastToDFACapped is PastToDFA with an explicit state cap.
func PastToDFACapped(p ltl.Formula, props []string, capStates int) (*dfa.DFA, error) {
	if !ltl.IsPastFormula(p) {
		return nil, fmt.Errorf("%w: %v", ErrNotPast, p)
	}
	if props == nil {
		props = ltl.Props(p)
	} else {
		have := map[string]bool{}
		for _, pr := range props {
			have[pr] = true
		}
		for _, pr := range ltl.Props(p) {
			if !have[pr] {
				return nil, fmt.Errorf("compile: proposition %q of %v missing from %v", pr, p, props)
			}
		}
	}
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		return nil, err
	}
	return pastToDFAOver(context.Background(), p, alpha, capStates)
}

// PastToDFAOverAlphabet compiles a past formula over an explicit symbol
// alphabet (e.g. plain letters, where a proposition holds at the symbol
// with the same name). Used for the paper's finite-Σ examples.
func PastToDFAOverAlphabet(p ltl.Formula, alpha *alphabet.Alphabet) (*dfa.DFA, error) {
	return PastToDFAOverAlphabetCtx(context.Background(), p, alpha)
}

// PastToDFAOverAlphabetCtx is PastToDFAOverAlphabet with cooperative
// cancellation and resource governance: the construction polls the
// context and charges each materialized state against the context's
// budget in addition to the package-local cap.
func PastToDFAOverAlphabetCtx(ctx context.Context, p ltl.Formula, alpha *alphabet.Alphabet) (*dfa.DFA, error) {
	if !ltl.IsPastFormula(p) {
		return nil, fmt.Errorf("%w: %v", ErrNotPast, p)
	}
	return pastToDFAOver(ctx, p, alpha, DefaultStateCap)
}

// pastOp is the operator of one past subformula.
type pastOp uint8

const (
	opTrue pastOp = iota
	opFalse
	opProp
	opNot
	opAnd
	opOr
	opImplies
	opIff
	opPrev
	opWeakPrev
	opSince
	opBack
	opOnce
	opHistorically
)

// pastNode is one slot of the truth vector: its operator and operand
// slots l and r. For opProp, l is the proposition's row in the
// per-symbol value table.
type pastNode struct {
	op   pastOp
	l, r int32
}

// pastNodes resolves the subformulas (children before parents) to slots
// once, before any state is built: each operand becomes the slot of its
// subformula, and each proposition a row of vals, whose entry
// vals[row*k+si] is the proposition's value at symbol si. Symbols are
// parsed at the first proposition, once each: a valuation symbol holds
// the propositions it lists, any other symbol only the proposition of
// its own name (eval.HoldsAtSymbol's rule).
func pastNodes(subs []ltl.Formula, alpha *alphabet.Alphabet) (nodes []pastNode, vals []bool) {
	slot := make(map[string]int32, len(subs))
	for i, s := range subs {
		slot[s.String()] = int32(i)
	}
	at := func(f ltl.Formula) int32 { return slot[f.String()] }
	k := alpha.Size()
	var syms []alphabet.Valuation // nil entry: not a valuation symbol
	nodes = make([]pastNode, len(subs))
	for i, s := range subs {
		var nd pastNode
		switch t := s.(type) {
		case ltl.True:
			nd = pastNode{op: opTrue}
		case ltl.False:
			nd = pastNode{op: opFalse}
		case ltl.Prop:
			if syms == nil {
				syms = make([]alphabet.Valuation, k)
				for si := range syms {
					syms[si], _ = alphabet.ParseValuation(alpha.Symbol(si))
				}
			}
			nd = pastNode{op: opProp, l: int32(len(vals) / k)}
			for si, v := range syms {
				vals = append(vals, v.Holds(t.Name) || v == nil && string(alpha.Symbol(si)) == t.Name)
			}
		case ltl.Not:
			nd = pastNode{op: opNot, l: at(t.F)}
		case ltl.And:
			nd = pastNode{op: opAnd, l: at(t.L), r: at(t.R)}
		case ltl.Or:
			nd = pastNode{op: opOr, l: at(t.L), r: at(t.R)}
		case ltl.Implies:
			nd = pastNode{op: opImplies, l: at(t.L), r: at(t.R)}
		case ltl.Iff:
			nd = pastNode{op: opIff, l: at(t.L), r: at(t.R)}
		case ltl.Prev:
			nd = pastNode{op: opPrev, l: at(t.F)}
		case ltl.WeakPrev:
			nd = pastNode{op: opWeakPrev, l: at(t.F)}
		case ltl.Since:
			nd = pastNode{op: opSince, l: at(t.L), r: at(t.R)}
		case ltl.Back:
			nd = pastNode{op: opBack, l: at(t.L), r: at(t.R)}
		case ltl.Once:
			nd = pastNode{op: opOnce, l: at(t.F)}
		case ltl.Historically:
			nd = pastNode{op: opHistorically, l: at(t.F)}
		default:
			// Future operators are excluded by the IsPastFormula guard.
			panic(fmt.Sprintf("compile: unexpected %T", s))
		}
		nodes[i] = nd
	}
	return nodes, vals
}

// pastStep writes into cur the truth vector at the new position, from
// the previous position's vector (had false at the first position, where
// prev is not read) and the input symbol si of a k-symbol alphabet.
func pastStep(nodes []pastNode, vals []bool, k int, prev []bool, had bool, si int, cur []bool) {
	for i, nd := range nodes {
		var v bool
		switch nd.op {
		case opTrue:
			v = true
		case opFalse:
			v = false
		case opProp:
			v = vals[int(nd.l)*k+si]
		case opNot:
			v = !cur[nd.l]
		case opAnd:
			v = cur[nd.l] && cur[nd.r]
		case opOr:
			v = cur[nd.l] || cur[nd.r]
		case opImplies:
			v = !cur[nd.l] || cur[nd.r]
		case opIff:
			v = cur[nd.l] == cur[nd.r]
		case opPrev:
			v = had && prev[nd.l]
		case opWeakPrev:
			v = !had || prev[nd.l]
		case opSince:
			v = cur[nd.r] || (cur[nd.l] && had && prev[i])
		case opBack:
			v = cur[nd.r] || (cur[nd.l] && (!had || prev[i]))
		case opOnce:
			v = cur[nd.l] || (had && prev[i])
		case opHistorically:
			v = cur[nd.l] && (!had || prev[i])
		}
		cur[i] = v
	}
}

func pastToDFAOver(ctx context.Context, p ltl.Formula, alpha *alphabet.Alphabet, capStates int) (*dfa.DFA, error) {
	sp := obs.StartIn(ctx, "compile.past2dfa").Stringer("formula", p).Int("alphabet", alpha.Size())
	defer sp.End()
	cntPastDFACalls.Inc()

	subs := ltl.Subformulas(p) // children before parents
	nodes, vals := pastNodes(subs, alpha)
	top := len(subs) - 1 // p itself comes last
	k := alpha.Size()
	m := len(subs)

	// BFS over reachable truth vectors; state 0 is the initial (ε)
	// pseudo-state, kept out of the interner (vector ids are offset by 1).
	// State q ≥ 1 has vector vecs[(q-1)*m : q*m]; each step is computed
	// into cur and copied only when the interner reports it fresh.
	var vecs []bool
	cur := make([]bool, m)
	key := make([]byte, (m+7)/8)
	index := autkern.NewKeyInterner()
	trans := make([]int, k) // row-major, k entries per state
	accept := []bool{false}
	for qi := 0; qi < len(accept); qi++ {
		if len(accept) > capStates {
			return nil, fmt.Errorf("%w (> %d)", ErrTooManyStates, capStates)
		}
		if err := fault.Hit(fault.SiteCompilePast); err != nil {
			return nil, err
		}
		if err := budget.Poll(ctx, 0); err != nil {
			return nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return nil, err
		}
		var prev []bool
		if qi > 0 {
			prev = vecs[(qi-1)*m : qi*m]
		}
		for si := 0; si < k; si++ {
			pastStep(nodes, vals, k, prev, qi > 0, si, cur)
			clear(key)
			for i, x := range cur {
				if x {
					key[i/8] |= 1 << (i % 8)
				}
			}
			id, fresh := index.Intern(key)
			if fresh {
				vecs = append(vecs, cur...)
				trans = append(trans, make([]int, k)...)
				accept = append(accept, cur[top])
			}
			trans[qi*k+si] = id + 1
		}
	}
	rows := make([][]int, len(accept))
	for q := range rows {
		rows[q] = trans[q*k : (q+1)*k]
	}
	d, err := dfa.New(alpha, rows, 0, accept)
	if err != nil {
		return nil, err
	}
	md, err := d.MinimizeCtx(ctx)
	if err != nil {
		return nil, err
	}
	sp.Int("raw_states", len(accept)).Int("states", md.NumStates())
	cntPastDFAStates.Add(int64(md.NumStates()))
	return md, nil
}

// Esat compiles a past formula into the paper's finitary property
// esat(p) over 2^props (props nil = formula's own propositions).
func Esat(p ltl.Formula, props []string) (*lang.Property, error) {
	d, err := PastToDFA(p, props)
	if err != nil {
		return nil, err
	}
	return lang.FromDFA(d), nil
}

// EsatOverAlphabet is Esat over an explicit symbol alphabet.
func EsatOverAlphabet(p ltl.Formula, alpha *alphabet.Alphabet) (*lang.Property, error) {
	d, err := PastToDFAOverAlphabet(p, alpha)
	if err != nil {
		return nil, err
	}
	return lang.FromDFA(d), nil
}
