package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
)

var cntFormulasCompiled = obs.NewCounter("compile.formula.calls")

// ErrNotNormalizable is returned for formulas outside the supported
// normalizable fragment. The paper's normal-form theorem ("every temporal
// formula is equivalent to a reactivity formula") relies on the full
// future→past separation theorem, whose construction the paper itself
// leaves out; this package implements the paper's own rewrite laws, which
// cover boolean combinations of the canonical forms and all the
// specification idioms of §4 (invariance, precedence, response,
// conditional guarantee/persistence, obligations, fairness, U/W/X over
// past operands).
var ErrNotNormalizable = errors.New("core: formula outside the normalizable fragment")

// UnitKind identifies a canonical temporal prefix over a past formula.
type UnitKind int

// The four canonical units of §4, plus the internal anchored unit for
// initial/positional conditions (x at the single position marked by an
// anchor formula), which folds into the other kinds during clause
// collapse using the paper's conditional laws.
const (
	UnitSafety      UnitKind = iota + 1 // □p
	UnitGuarantee                       // ◇p
	UnitRecurrence                      // □◇p
	UnitPersistence                     // ◇□p
	UnitInitial                         // Arg at the position marked by Anchor
)

func (k UnitKind) String() string {
	switch k {
	case UnitSafety:
		return "G"
	case UnitGuarantee:
		return "F"
	case UnitRecurrence:
		return "GF"
	case UnitPersistence:
		return "FG"
	case UnitInitial:
		return "@"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// Unit is one canonical building block: Kind applied to the past formula
// Arg.
type Unit struct {
	Kind UnitKind
	Arg  ltl.Formula
	// Anchor marks the unique position a UnitInitial speaks about
	// (e.g. first, ◯⁻first, …); nil for the other kinds.
	Anchor ltl.Formula
}

// Formula reconstructs the unit as a temporal formula.
func (u Unit) Formula() ltl.Formula {
	switch u.Kind {
	case UnitSafety:
		return ltl.Always{F: u.Arg}
	case UnitGuarantee:
		return ltl.Eventually{F: u.Arg}
	case UnitRecurrence:
		return ltl.Always{F: ltl.Eventually{F: u.Arg}}
	case UnitPersistence:
		return ltl.Eventually{F: ltl.Always{F: u.Arg}}
	case UnitInitial:
		return ltl.Eventually{F: ltl.And{L: u.Anchor, R: u.Arg}}
	default:
		panic(fmt.Sprintf("core: bad unit kind %d", u.Kind))
	}
}

// Clause is a collapsed disjunction of units: at most one unit per slot.
// A nil slot is absent. After normalization a clause is one of
// □s | ◇g | □s∨◇g | □◇r | ◇□p | □◇r∨◇□p.
type Clause struct {
	Safe, Guar, Rec, Pers ltl.Formula
}

// Formula reconstructs the clause.
func (c Clause) Formula() ltl.Formula {
	var parts []ltl.Formula
	if c.Safe != nil {
		parts = append(parts, Unit{Kind: UnitSafety, Arg: c.Safe}.Formula())
	}
	if c.Guar != nil {
		parts = append(parts, Unit{Kind: UnitGuarantee, Arg: c.Guar}.Formula())
	}
	if c.Rec != nil {
		parts = append(parts, Unit{Kind: UnitRecurrence, Arg: c.Rec}.Formula())
	}
	if c.Pers != nil {
		parts = append(parts, Unit{Kind: UnitPersistence, Arg: c.Pers}.Formula())
	}
	return ltl.BigOr(parts)
}

// kindCount returns how many slots are filled.
func (c Clause) kindCount() int {
	n := 0
	for _, f := range []ltl.Formula{c.Safe, c.Guar, c.Rec, c.Pers} {
		if f != nil {
			n++
		}
	}
	return n
}

// NormalForm is a conjunction of clauses — the paper's conjunctive normal
// form, specialized per clause to the lowest applicable shape.
type NormalForm struct {
	Clauses []Clause
}

// Formula reconstructs the normal form as a temporal formula.
func (nf NormalForm) Formula() ltl.Formula {
	parts := make([]ltl.Formula, len(nf.Clauses))
	for i, c := range nf.Clauses {
		parts[i] = c.Formula()
	}
	return ltl.BigAnd(parts)
}

func (nf NormalForm) String() string {
	parts := make([]string, len(nf.Clauses))
	for i, c := range nf.Clauses {
		parts[i] = "(" + c.Formula().String() + ")"
	}
	return strings.Join(parts, " & ")
}

// comb is a positive boolean combination of units.
type comb struct {
	unit *Unit
	and  bool
	l, r *comb
}

func leaf(k UnitKind, arg ltl.Formula) *comb { return &comb{unit: &Unit{Kind: k, Arg: arg}} }

// Normalize rewrites a formula into the conjunctive normal form of §4.
func Normalize(f ltl.Formula) (NormalForm, error) {
	sp := obs.Start("core.normalize").Stringer("formula", f)
	defer sp.End()
	c, err := rewrite(ltl.Nnf(f), true)
	if err != nil {
		return NormalForm{}, err
	}
	cnf := toCNF(c)
	out := NormalForm{Clauses: make([]Clause, 0, len(cnf))}
	for _, units := range cnf {
		out.Clauses = append(out.Clauses, collapseClause(units))
	}
	sp.Int("clauses", len(out.Clauses))
	return out, nil
}

// invariant reports whether the formula's truth value is independent of
// the evaluation position (□◇p and ◇□p are for any p; booleans of
// invariants are too).
func invariant(f ltl.Formula) bool {
	switch t := f.(type) {
	case ltl.Always:
		if e, ok := t.F.(ltl.Eventually); ok {
			return ltl.IsPastFormula(e.F) || invariant(e.F)
		}
		return invariant(t.F)
	case ltl.Eventually:
		if a, ok := t.F.(ltl.Always); ok {
			return ltl.IsPastFormula(a.F) || invariant(a.F)
		}
		return invariant(t.F)
	case ltl.And:
		return invariant(t.L) && invariant(t.R)
	case ltl.Or:
		return invariant(t.L) && invariant(t.R)
	default:
		return false
	}
}

// rewrite converts an NNF formula into a positive combination of units.
// atTop is true while no temporal operator has been crossed except along
// position-preserving boolean structure; several of the paper's laws are
// anchored at position 0 and are only applied there.
func rewrite(f ltl.Formula, atTop bool) (*comb, error) {
	if ltl.IsPastFormula(f) {
		// A past formula as a property speaks about position 0.
		return &comb{unit: &Unit{Kind: UnitInitial, Arg: f, Anchor: ltl.First()}}, nil
	}
	switch t := f.(type) {
	case ltl.And:
		l, err := rewrite(t.L, atTop)
		if err != nil {
			return nil, err
		}
		r, err := rewrite(t.R, atTop)
		if err != nil {
			return nil, err
		}
		return &comb{and: true, l: l, r: r}, nil
	case ltl.Or:
		l, err := rewrite(t.L, atTop)
		if err != nil {
			return nil, err
		}
		r, err := rewrite(t.R, atTop)
		if err != nil {
			return nil, err
		}
		return &comb{and: false, l: l, r: r}, nil
	case ltl.Always:
		return rewriteAlways(t.F, atTop)
	case ltl.Eventually:
		return rewriteEventually(t.F, atTop)
	case ltl.Next:
		return rewriteNext(t.F, 1)
	case ltl.Until:
		// (a U b) at position 0 with past operands:
		// ◇(b ∧ "a held at all earlier positions").
		if atTop && ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return leaf(UnitGuarantee, ltl.And{L: t.R, R: ltl.WeakPrev{F: ltl.Historically{F: t.L}}}), nil
		}
		return nil, fmt.Errorf("%w: %v", ErrNotNormalizable, f)
	case ltl.Unless:
		// (a W b) at position 0 with past operands: □(a ∨ ◇⁻b).
		if atTop && ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return leaf(UnitSafety, ltl.Or{L: t.L, R: ltl.Once{F: t.R}}), nil
		}
		return nil, fmt.Errorf("%w: %v", ErrNotNormalizable, f)
	default:
		return nil, fmt.Errorf("%w: %v", ErrNotNormalizable, f)
	}
}

// rewriteAlways handles □g.
func rewriteAlways(g ltl.Formula, atTop bool) (*comb, error) {
	if ltl.IsPastFormula(g) {
		return leaf(UnitSafety, g), nil
	}
	switch t := g.(type) {
	case ltl.Always:
		// □□g = □g.
		return rewriteAlways(t.F, atTop)
	case ltl.Eventually:
		return rewriteAlwaysEventually(t.F)
	case ltl.Until:
		// □(a U b) = □(a ∨ b) ∧ □◇b (position-invariant for past a, b).
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			l, err := rewriteAlways(ltl.Or{L: t.L, R: t.R}, atTop)
			if err != nil {
				return nil, err
			}
			return &comb{and: true, l: l, r: leaf(UnitRecurrence, t.R)}, nil
		}
		return nil, fmt.Errorf("%w: G (%v)", ErrNotNormalizable, g)
	case ltl.Unless:
		// □(a W b) = □(a ∨ b) for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return rewriteAlways(ltl.Or{L: t.L, R: t.R}, atTop)
		}
		return nil, fmt.Errorf("%w: G (%v)", ErrNotNormalizable, g)
	case ltl.And:
		// □(x ∧ y) = □x ∧ □y (valid at every position).
		l, err := rewriteAlways(t.L, atTop)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAlways(t.R, atTop)
		if err != nil {
			return nil, err
		}
		return &comb{and: true, l: l, r: r}, nil
	case ltl.Or:
		return rewriteAlwaysOr(t, atTop)
	default:
		return nil, fmt.Errorf("%w: G %v", ErrNotNormalizable, g)
	}
}

// rewriteAlwaysEventually handles □◇h.
func rewriteAlwaysEventually(h ltl.Formula) (*comb, error) {
	if ltl.IsPastFormula(h) {
		return leaf(UnitRecurrence, h), nil
	}
	switch t := h.(type) {
	case ltl.Eventually:
		// □◇◇h = □◇h.
		return rewriteAlwaysEventually(t.F)
	case ltl.Always:
		// □◇□h = ◇□h.
		return rewriteEventuallyAlways(t.F)
	case ltl.Next:
		// □◇◯h = □◇h.
		return rewriteAlwaysEventually(t.F)
	case ltl.Until:
		// □◇(a U b) = □◇b for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return leaf(UnitRecurrence, t.R), nil
		}
		return nil, fmt.Errorf("%w: GF (%v)", ErrNotNormalizable, h)
	case ltl.Unless:
		// □◇(a W b) = □◇b ∨ ◇□a for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return &comb{and: false, l: leaf(UnitRecurrence, t.R), r: leaf(UnitPersistence, t.L)}, nil
		}
		return nil, fmt.Errorf("%w: GF (%v)", ErrNotNormalizable, h)
	case ltl.Or:
		// □◇(x ∨ y) = □◇x ∨ □◇y.
		l, err := rewriteAlwaysEventually(t.L)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAlwaysEventually(t.R)
		if err != nil {
			return nil, err
		}
		return &comb{and: false, l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("%w: GF %v", ErrNotNormalizable, h)
	}
}

// rewriteEventuallyAlways handles ◇□h.
func rewriteEventuallyAlways(h ltl.Formula) (*comb, error) {
	if ltl.IsPastFormula(h) {
		return leaf(UnitPersistence, h), nil
	}
	switch t := h.(type) {
	case ltl.Always:
		// ◇□□h = ◇□h.
		return rewriteEventuallyAlways(t.F)
	case ltl.Eventually:
		// ◇□◇h = □◇h.
		return rewriteAlwaysEventually(t.F)
	case ltl.Next:
		// ◇□◯h = ◇□h.
		return rewriteEventuallyAlways(t.F)
	case ltl.Until:
		// ◇□(a U b) = ◇□(a ∨ b) ∧ □◇b for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return &comb{and: true,
				l: leaf(UnitPersistence, ltl.Or{L: t.L, R: t.R}),
				r: leaf(UnitRecurrence, t.R)}, nil
		}
		return nil, fmt.Errorf("%w: FG (%v)", ErrNotNormalizable, h)
	case ltl.Unless:
		// ◇□(a W b) = ◇□a ∨ (◇□(a ∨ b) ∧ □◇b) for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			conj := &comb{and: true,
				l: leaf(UnitPersistence, ltl.Or{L: t.L, R: t.R}),
				r: leaf(UnitRecurrence, t.R)}
			return &comb{and: false, l: leaf(UnitPersistence, t.L), r: conj}, nil
		}
		return nil, fmt.Errorf("%w: FG (%v)", ErrNotNormalizable, h)
	case ltl.And:
		// ◇□(x ∧ y) = ◇□x ∧ ◇□y.
		l, err := rewriteEventuallyAlways(t.L)
		if err != nil {
			return nil, err
		}
		r, err := rewriteEventuallyAlways(t.R)
		if err != nil {
			return nil, err
		}
		return &comb{and: true, l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("%w: FG %v", ErrNotNormalizable, h)
	}
}

// rewriteAlwaysOr handles □(d1 ∨ … ∨ dn) by splitting the disjuncts into
// a past part, guarantee parts ◇g, at most one □s part, conditional
// persistence parts ◇□p, and position-independent parts that distribute
// out of the □.
func rewriteAlwaysOr(g ltl.Or, atTop bool) (*comb, error) {
	var disjuncts []ltl.Formula
	var flatten func(f ltl.Formula)
	flatten = func(f ltl.Formula) {
		if o, ok := f.(ltl.Or); ok {
			flatten(o.L)
			flatten(o.R)
			return
		}
		disjuncts = append(disjuncts, f)
	}
	flatten(g)

	var pasts, guars, safes, perss []ltl.Formula
	type shifted struct {
		depth int
		f     ltl.Formula
	}
	var nexts []shifted
	var weaks []ltl.Unless // at most one a W b disjunct (past operands)
	var untils []ltl.Until // at most one a U b disjunct (past operands)
	var pulled []*comb     // position-independent disjuncts pulled out of □
	for _, d := range disjuncts {
		// Peel ◯-chains over past formulas: ◯^d φ.
		depth, inner := 0, d
		for {
			if nx, ok := inner.(ltl.Next); ok {
				depth++
				inner = nx.F
				continue
			}
			break
		}
		if depth > 0 && ltl.IsPastFormula(inner) {
			nexts = append(nexts, shifted{depth: depth, f: inner})
			continue
		}
		if w, ok := d.(ltl.Unless); ok && ltl.IsPastFormula(w.L) && ltl.IsPastFormula(w.R) {
			weaks = append(weaks, w)
			continue
		}
		if u, ok := d.(ltl.Until); ok && ltl.IsPastFormula(u.L) && ltl.IsPastFormula(u.R) {
			untils = append(untils, u)
			continue
		}
		switch {
		case ltl.IsPastFormula(d):
			pasts = append(pasts, d)
		case invariant(d):
			c, err := rewrite(d, false)
			if err != nil {
				return nil, err
			}
			pulled = append(pulled, c)
		default:
			switch t := d.(type) {
			case ltl.Eventually:
				switch inner := t.F.(type) {
				case ltl.Always:
					if !ltl.IsPastFormula(inner.F) {
						return nil, fmt.Errorf("%w: G(… | FG %v)", ErrNotNormalizable, inner.F)
					}
					perss = append(perss, inner.F)
				default:
					if !ltl.IsPastFormula(t.F) {
						return nil, fmt.Errorf("%w: G(… | F %v)", ErrNotNormalizable, t.F)
					}
					guars = append(guars, t.F)
				}
			case ltl.Always:
				if !ltl.IsPastFormula(t.F) {
					return nil, fmt.Errorf("%w: G(… | G %v)", ErrNotNormalizable, t.F)
				}
				safes = append(safes, t.F)
			default:
				return nil, fmt.Errorf("%w: G(… | %v)", ErrNotNormalizable, d)
			}
		}
	}

	if !atTop && (len(safes) > 0 || len(perss) > 0 || len(guars) > 0 || len(nexts) > 0 ||
		len(weaks) > 0 || len(untils) > 0) {
		// The conditional-safety/persistence/response laws below are
		// anchored at position 0.
		return nil, fmt.Errorf("%w: nested conditional G-clause", ErrNotNormalizable)
	}
	if len(weaks)+len(untils) > 0 {
		// □(x ∨ (a W b)): failure at k means some j ≤ k had ¬x with no b
		// anywhere in [j,k] and ¬a@k, so the law is the pure-past
		// invariance □( (¬b) S (¬x ∧ ¬b) → a ). An until disjunct is the
		// conjunction of its weak form with the response □(x ∨ ◇b).
		if len(weaks)+len(untils) > 1 || len(guars) > 0 || len(safes) > 0 || len(perss) > 0 || len(nexts) > 0 {
			return nil, fmt.Errorf("%w: G-clause mixing W/U with other modal disjuncts", ErrNotNormalizable)
		}
		base := ltl.BigOr(pasts)
		var aArg, bArg ltl.Formula
		isUntil := len(untils) == 1
		if isUntil {
			aArg, bArg = untils[0].L, untils[0].R
		} else {
			aArg, bArg = weaks[0].L, weaks[0].R
		}
		pending := ltl.Since{
			L: ltl.Not{F: bArg},
			R: ltl.And{L: ltl.Not{F: base}, R: ltl.Not{F: bArg}},
		}
		result := leaf(UnitSafety, ltl.Implies{L: pending, R: aArg})
		if isUntil {
			// Conjoin the liveness half: □(x ∨ ◇b) ~ □◇(x B b).
			result = &comb{and: true, l: result,
				r: leaf(UnitRecurrence, ltl.Back{L: base, R: bArg})}
		}
		for _, c := range pulled {
			result = &comb{and: false, l: result, r: c}
		}
		return result, nil
	}
	if len(nexts) > 0 {
		// □(x ∨ ◯^{d₁}φ₁ ∨ …): substitute k = j + D for D = max dᵢ; the
		// condition becomes a pure past invariance
		// □(¬◯⁻^D true ∨ ◯⁻^D x ∨ ⋁ ◯⁻^{D−dᵢ} φᵢ) — e.g. the common
		// G(p → ◯q) = □(◯⁻p → q). Mixing with modal disjuncts is not
		// supported.
		if len(guars) > 0 || len(safes) > 0 || len(perss) > 0 {
			return nil, fmt.Errorf("%w: G-clause mixing X with modal disjuncts", ErrNotNormalizable)
		}
		maxD := 0
		for _, nx := range nexts {
			if nx.depth > maxD {
				maxD = nx.depth
			}
		}
		prevN := func(f ltl.Formula, n int) ltl.Formula {
			for i := 0; i < n; i++ {
				f = ltl.Prev{F: f}
			}
			return f
		}
		arg := ltl.Or{L: ltl.Not{F: prevN(ltl.True{}, maxD)}, R: prevN(ltl.BigOr(pasts), maxD)}
		var acc ltl.Formula = arg
		for _, nx := range nexts {
			acc = ltl.Or{L: acc, R: prevN(nx.f, maxD-nx.depth)}
		}
		result := leaf(UnitSafety, acc)
		for _, c := range pulled {
			result = &comb{and: false, l: result, r: c}
		}
		return result, nil
	}

	base := ltl.BigOr(pasts) // the past disjunct x (false if none)
	var result *comb
	addOr := func(c *comb) {
		if result == nil {
			result = c
		} else {
			result = &comb{and: false, l: result, r: c}
		}
	}

	trigger := ltl.Once{F: ltl.Not{F: base}} // ◇⁻¬x: the condition has fired
	switch {
	case len(guars) == 0 && len(safes) == 0 && len(perss) == 0:
		// Pure past: □x.
		addOr(leaf(UnitSafety, base))
	case len(guars) > 0 && len(safes) == 0 && len(perss) == 0:
		// Response: □(x ∨ ◇g) ~ □◇(x B g) (the paper's
		// □(p→◇q) ~ □◇((¬p) B q) with x = ¬p).
		gAll := ltl.BigOr(guars)
		addOr(leaf(UnitRecurrence, ltl.Back{L: base, R: gAll}))
	case len(guars) == 0 && len(safes) == 1 && len(perss) == 0:
		// Conditional safety: □(x ∨ □s) ~ □(◇⁻¬x → s).
		addOr(leaf(UnitSafety, ltl.Implies{L: trigger, R: safes[0]}))
	case len(guars) == 0 && len(safes) == 0 && len(perss) > 0:
		// Conditional persistence: □(x ∨ ◇□p) ~ ◇□(◇⁻¬x → p), folding
		// multiple persistence disjuncts first.
		p := perss[0]
		for _, next := range perss[1:] {
			p = foldPersOr(p, next)
		}
		addOr(leaf(UnitPersistence, ltl.Implies{L: trigger, R: p}))
	default:
		return nil, fmt.Errorf("%w: mixed G-clause with %d F, %d G, %d FG disjuncts",
			ErrNotNormalizable, len(guars), len(safes), len(perss))
	}
	for _, c := range pulled {
		addOr(c)
	}
	return result, nil
}

// rewriteEventually handles ◇g.
func rewriteEventually(g ltl.Formula, atTop bool) (*comb, error) {
	if ltl.IsPastFormula(g) {
		return leaf(UnitGuarantee, g), nil
	}
	switch t := g.(type) {
	case ltl.Eventually:
		return rewriteEventually(t.F, atTop)
	case ltl.Always:
		return rewriteEventuallyAlways(t.F)
	case ltl.Until:
		// ◇(a U b) = ◇b for past a, b (take the witness position itself).
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return leaf(UnitGuarantee, t.R), nil
		}
		return nil, fmt.Errorf("%w: F (%v)", ErrNotNormalizable, g)
	case ltl.Unless:
		// ◇(a W b) = ◇b ∨ ◇□a for past a, b.
		if ltl.IsPastFormula(t.L) && ltl.IsPastFormula(t.R) {
			return &comb{and: false, l: leaf(UnitGuarantee, t.R), r: leaf(UnitPersistence, t.L)}, nil
		}
		return nil, fmt.Errorf("%w: F (%v)", ErrNotNormalizable, g)
	case ltl.Or:
		// ◇(x ∨ y) = ◇x ∨ ◇y.
		l, err := rewriteEventually(t.L, atTop)
		if err != nil {
			return nil, err
		}
		r, err := rewriteEventually(t.R, atTop)
		if err != nil {
			return nil, err
		}
		return &comb{and: false, l: l, r: r}, nil
	case ltl.And:
		return rewriteEventuallyAnd(t, atTop)
	default:
		return nil, fmt.Errorf("%w: F %v", ErrNotNormalizable, g)
	}
}

// rewriteEventuallyAnd handles ◇(x ∧ y): position-independent conjuncts
// distribute out; a past conjunct with one □s becomes a persistence unit;
// pure past conjunctions are already past.
func rewriteEventuallyAnd(g ltl.And, atTop bool) (*comb, error) {
	var conjuncts []ltl.Formula
	var flatten func(f ltl.Formula)
	flatten = func(f ltl.Formula) {
		if a, ok := f.(ltl.And); ok {
			flatten(a.L)
			flatten(a.R)
			return
		}
		conjuncts = append(conjuncts, f)
	}
	flatten(g)

	var pasts, safes []ltl.Formula
	type shifted struct {
		depth int
		f     ltl.Formula
	}
	var nexts []shifted
	var pulled []*comb
	for _, d := range conjuncts {
		depth, inner := 0, d
		for {
			if nx, ok := inner.(ltl.Next); ok {
				depth++
				inner = nx.F
				continue
			}
			break
		}
		if depth > 0 && ltl.IsPastFormula(inner) {
			nexts = append(nexts, shifted{depth: depth, f: inner})
			continue
		}
		switch {
		case ltl.IsPastFormula(d):
			pasts = append(pasts, d)
		case invariant(d):
			c, err := rewrite(d, false)
			if err != nil {
				return nil, err
			}
			pulled = append(pulled, c)
		default:
			if a, ok := d.(ltl.Always); ok && ltl.IsPastFormula(a.F) {
				safes = append(safes, a.F)
				continue
			}
			return nil, fmt.Errorf("%w: F(… & %v)", ErrNotNormalizable, d)
		}
	}
	if len(nexts) > 0 {
		// ◇(x ∧ ◯^{d₁}φ₁ ∧ …) = ◇(◯⁻^D true ∧ ◯⁻^D x ∧ ⋀ ◯⁻^{D−dᵢ} φᵢ)
		// for D = max dᵢ — anchored at position 0 (atTop).
		if !atTop || len(safes) > 0 {
			return nil, fmt.Errorf("%w: F-clause mixing X with G or nested", ErrNotNormalizable)
		}
		maxD := 0
		for _, nx := range nexts {
			if nx.depth > maxD {
				maxD = nx.depth
			}
		}
		prevN := func(f ltl.Formula, n int) ltl.Formula {
			for i := 0; i < n; i++ {
				f = ltl.Prev{F: f}
			}
			return f
		}
		var acc ltl.Formula = ltl.And{L: prevN(ltl.True{}, maxD), R: prevN(ltl.BigAnd(pasts), maxD)}
		for _, nx := range nexts {
			acc = ltl.And{L: acc, R: prevN(nx.f, maxD-nx.depth)}
		}
		result := leaf(UnitGuarantee, acc)
		for _, c := range pulled {
			result = &comb{and: true, l: result, r: c}
		}
		return result, nil
	}
	var result *comb
	base := ltl.BigAnd(pasts)
	switch {
	case len(safes) == 0:
		result = leaf(UnitGuarantee, base)
	case atTop:
		// ◇(x ∧ □s) ~ ◇□(s ∧ s S (x ∧ s)) — anchored at position 0.
		s := ltl.BigAnd(safes)
		result = leaf(UnitPersistence, ltl.And{L: s, R: ltl.Since{L: s, R: ltl.And{L: base, R: s}}})
	default:
		return nil, fmt.Errorf("%w: nested F(past & G past)", ErrNotNormalizable)
	}
	for _, c := range pulled {
		result = &comb{and: true, l: result, r: c}
	}
	return result, nil
}

// rewriteNext handles ◯^depth g: the ◯s are absorbed into positional
// anchors (◯^d p speaks about position d).
func rewriteNext(g ltl.Formula, depth int) (*comb, error) {
	anchor := func() ltl.Formula {
		a := ltl.First()
		for i := 0; i < depth; i++ {
			a = ltl.Prev{F: a}
		}
		return a
	}
	// beyondAnchor holds at positions ≥ depth.
	beyondAnchor := func() ltl.Formula {
		var a ltl.Formula = ltl.True{}
		for i := 0; i < depth; i++ {
			a = ltl.Prev{F: a}
		}
		return a
	}
	if ltl.IsPastFormula(g) {
		return &comb{unit: &Unit{Kind: UnitInitial, Arg: g, Anchor: anchor()}}, nil
	}
	if invariant(g) {
		return rewrite(g, false)
	}
	switch t := g.(type) {
	case ltl.Next:
		return rewriteNext(t.F, depth+1)
	case ltl.And:
		l, err := rewriteNext(t.L, depth)
		if err != nil {
			return nil, err
		}
		r, err := rewriteNext(t.R, depth)
		if err != nil {
			return nil, err
		}
		return &comb{and: true, l: l, r: r}, nil
	case ltl.Or:
		l, err := rewriteNext(t.L, depth)
		if err != nil {
			return nil, err
		}
		r, err := rewriteNext(t.R, depth)
		if err != nil {
			return nil, err
		}
		return &comb{and: false, l: l, r: r}, nil
	case ltl.Eventually:
		// ◯^d ◇x = ◇(x at a position ≥ d).
		if ltl.IsPastFormula(t.F) {
			return leaf(UnitGuarantee, ltl.And{L: t.F, R: beyondAnchor()}), nil
		}
		return nil, fmt.Errorf("%w: X^%d F %v", ErrNotNormalizable, depth, t.F)
	case ltl.Always:
		// ◯^d □x = □(position ≥ d → x).
		if ltl.IsPastFormula(t.F) {
			return leaf(UnitSafety, ltl.Implies{L: beyondAnchor(), R: t.F}), nil
		}
		return nil, fmt.Errorf("%w: X^%d G %v", ErrNotNormalizable, depth, t.F)
	default:
		return nil, fmt.Errorf("%w: X %v", ErrNotNormalizable, g)
	}
}

func toCNF(c *comb) [][]Unit {
	if c.unit != nil {
		return [][]Unit{{*c.unit}}
	}
	l := toCNF(c.l)
	r := toCNF(c.r)
	if c.and {
		return append(l, r...)
	}
	var out [][]Unit
	for _, x := range l {
		for _, y := range r {
			clause := make([]Unit, 0, len(x)+len(y))
			clause = append(clause, x...)
			clause = append(clause, y...)
			out = append(out, clause)
		}
	}
	return out
}

// foldPersOr folds ◇□p ∨ ◇□q into a single persistence argument using the
// paper's law ◇□p ∨ ◇□q ~ ◇□(q ∨ ◯⁻(p S (p ∧ ¬q))).
func foldPersOr(p, q ltl.Formula) ltl.Formula {
	return ltl.Or{L: q, R: ltl.Prev{F: ltl.Since{L: p, R: ltl.And{L: p, R: ltl.Not{F: q}}}}}
}

// foldSafeOr folds □p ∨ □q into □(□⁻p ∨ □⁻q) (anchored law).
func foldSafeOr(p, q ltl.Formula) ltl.Formula {
	return ltl.Or{L: ltl.Historically{F: p}, R: ltl.Historically{F: q}}
}

// collapseClause merges a disjunction of units into a canonical Clause:
// same-kind units fold by the paper's closure laws; when a recurrence or
// persistence unit is present, safety folds into persistence (□s ~ ◇□□⁻s)
// and guarantee into recurrence (◇g ~ □◇◇⁻g).
func collapseClause(units []Unit) Clause {
	var c Clause
	var inits []Unit
	for _, u := range units {
		switch u.Kind {
		case UnitInitial:
			inits = append(inits, u)
		case UnitSafety:
			if c.Safe == nil {
				c.Safe = u.Arg
			} else {
				c.Safe = foldSafeOr(c.Safe, u.Arg)
			}
		case UnitGuarantee:
			if c.Guar == nil {
				c.Guar = u.Arg
			} else {
				c.Guar = ltl.Or{L: c.Guar, R: u.Arg}
			}
		case UnitRecurrence:
			if c.Rec == nil {
				c.Rec = u.Arg
			} else {
				c.Rec = ltl.Or{L: c.Rec, R: u.Arg}
			}
		case UnitPersistence:
			if c.Pers == nil {
				c.Pers = u.Arg
			} else {
				c.Pers = foldPersOr(c.Pers, u.Arg)
			}
		}
	}
	// Fold anchored units using the paper's conditional laws:
	// x@a ∨ □s = □(◇⁻(a ∧ ¬x) → s); x@a ∨ □◇r = □◇(r ∨ ◇⁻(a ∧ x));
	// x@a ∨ ◇□p = ◇□(p ∨ ◇⁻(a ∧ x)); otherwise x@a = ◇(a ∧ x).
	for _, u := range inits {
		at := ltl.And{L: u.Anchor, R: u.Arg}
		switch {
		case c.Safe != nil:
			trigger := ltl.Once{F: ltl.And{L: u.Anchor, R: ltl.Not{F: u.Arg}}}
			c.Safe = ltl.Implies{L: trigger, R: c.Safe}
		case c.Rec != nil:
			c.Rec = ltl.Or{L: c.Rec, R: ltl.Once{F: at}}
		case c.Pers != nil:
			c.Pers = ltl.Or{L: c.Pers, R: ltl.Once{F: at}}
		case c.Guar != nil:
			c.Guar = ltl.Or{L: c.Guar, R: at}
		default:
			c.Guar = at
		}
	}
	if c.Rec != nil || c.Pers != nil {
		if c.Safe != nil {
			// □s = ◇□(□⁻s).
			s := ltl.Historically{F: c.Safe}
			if c.Pers == nil {
				c.Pers = s
			} else {
				c.Pers = foldPersOr(s, c.Pers)
			}
			c.Safe = nil
		}
		if c.Guar != nil {
			// ◇g = □◇(◇⁻g).
			g := ltl.Once{F: c.Guar}
			if c.Rec == nil {
				c.Rec = g
			} else {
				c.Rec = ltl.Or{L: c.Rec, R: g}
			}
			c.Guar = nil
		}
	}
	// Keep the generated past arguments readable.
	if c.Safe != nil {
		c.Safe = ltl.Simplify(c.Safe)
	}
	if c.Guar != nil {
		c.Guar = ltl.Simplify(c.Guar)
	}
	if c.Rec != nil {
		c.Rec = ltl.Simplify(c.Rec)
	}
	if c.Pers != nil {
		c.Pers = ltl.Simplify(c.Pers)
	}
	return c
}

// SyntacticClass determines the class of a formula from the shape of its
// normal form — the syntactic characterization of §4. The result is an
// upper bound on (and in the canonical cases equal to) the semantic
// class; use ClassifyFormula for the exact semantic classification.
func SyntacticClass(f ltl.Formula) (Class, NormalForm, error) {
	nf, err := Normalize(f)
	if err != nil {
		return 0, NormalForm{}, err
	}
	merged := mergeClauses(nf)
	onlyKinds := func(ok func(Clause) bool) bool {
		for _, c := range merged.Clauses {
			if !ok(c) {
				return false
			}
		}
		return true
	}
	switch {
	case len(merged.Clauses) == 1 && merged.Clauses[0].kindCount() == 1 && merged.Clauses[0].Safe != nil:
		return Safety, merged, nil
	case len(merged.Clauses) == 1 && merged.Clauses[0].kindCount() == 1 && merged.Clauses[0].Guar != nil:
		return Guarantee, merged, nil
	case onlyKinds(func(c Clause) bool { return c.Rec == nil && c.Pers == nil }):
		return Obligation, merged, nil
	case len(merged.Clauses) == 1 && merged.Clauses[0].kindCount() == 1 && merged.Clauses[0].Rec != nil:
		return Recurrence, merged, nil
	case len(merged.Clauses) == 1 && merged.Clauses[0].kindCount() == 1 && merged.Clauses[0].Pers != nil:
		return Persistence, merged, nil
	default:
		return Reactivity, merged, nil
	}
}

// mergeClauses folds same-shape clauses across the conjunction: pure
// safety clauses merge (□a ∧ □b = □(a∧b)), pure guarantees
// (◇a ∧ ◇b = ◇(◇⁻a ∧ ◇⁻b)), pure recurrences (the minex law
// □◇a ∧ □◇b = □◇(b ∧ ◯⁻((¬b) S a))), and pure persistences
// (◇□a ∧ ◇□b = ◇□(a∧b)).
func mergeClauses(nf NormalForm) NormalForm {
	var safe, guar, rec, pers ltl.Formula
	var rest []Clause
	for _, c := range nf.Clauses {
		switch {
		case c.kindCount() == 1 && c.Safe != nil:
			if safe == nil {
				safe = c.Safe
			} else {
				safe = ltl.And{L: safe, R: c.Safe}
			}
		case c.kindCount() == 1 && c.Guar != nil:
			if guar == nil {
				guar = c.Guar
			} else {
				guar = ltl.And{L: ltl.Once{F: guar}, R: ltl.Once{F: c.Guar}}
			}
		case c.kindCount() == 1 && c.Rec != nil:
			if rec == nil {
				rec = c.Rec
			} else {
				rec = minexFormula(rec, c.Rec)
			}
		case c.kindCount() == 1 && c.Pers != nil:
			if pers == nil {
				pers = c.Pers
			} else {
				pers = ltl.And{L: pers, R: c.Pers}
			}
		default:
			rest = append(rest, c)
		}
	}
	var out []Clause
	if safe != nil {
		out = append(out, Clause{Safe: safe})
	}
	if guar != nil {
		out = append(out, Clause{Guar: guar})
	}
	if rec != nil {
		out = append(out, Clause{Rec: rec})
	}
	if pers != nil {
		out = append(out, Clause{Pers: pers})
	}
	return NormalForm{Clauses: append(out, rest...)}
}

// minexFormula is the paper's past formula for minex(esat(p), esat(q)):
// q ∧ ◯⁻((¬q) S p).
func minexFormula(p, q ltl.Formula) ltl.Formula {
	return ltl.And{L: q, R: ltl.Prev{F: ltl.Since{L: ltl.Not{F: q}, R: p}}}
}

// CompileFormula builds a deterministic Streett automaton for the formula
// over the valuation alphabet 2^props (props nil = the formula's own
// propositions) — Proposition 5.3. Each clause compiles to the
// structurally matching κ-automaton and the conjunction to their product.
func CompileFormula(f ltl.Formula, props []string) (*omega.Automaton, error) {
	return CompileFormulaCtx(context.Background(), f, props)
}

// CompileFormulaCtx is CompileFormula with cooperative cancellation: the
// context is polled between clause compilations and threaded into the
// final product/reduction, so compiling a large conjunction aborts
// promptly when the caller cancels.
func CompileFormulaCtx(ctx context.Context, f ltl.Formula, props []string) (*omega.Automaton, error) {
	alpha, err := alphabet.Valuations(CompileProps(f, props))
	if err != nil {
		return nil, err
	}
	return CompileFormulaOverCtx(ctx, f, alpha, CompileClauseOver)
}

// CompileProps resolves the propositions a formula compiles over: nil
// means the formula's own, and a formula without any still gets a
// one-proposition alphabet.
func CompileProps(f ltl.Formula, props []string) []string {
	if props == nil {
		props = ltl.Props(f)
	}
	if len(props) == 0 {
		props = []string{"p"}
	}
	return props
}

// CompileFormulaOver compiles over an explicit alphabet, which must cover
// the formula's propositions (used with plain-letter alphabets where a
// proposition holds at its synonymous symbol).
func CompileFormulaOver(f ltl.Formula, alpha *alphabet.Alphabet) (*omega.Automaton, error) {
	return CompileFormulaOverCtx(context.Background(), f, alpha, CompileClauseOver)
}

// CompileFormulaOverCtx is CompileFormulaOver with cooperative
// cancellation, building each clause automaton with compileClause.
// CompileClauseOver is the plain procedure; the engine passes one that
// memoizes clauses.
func CompileFormulaOverCtx(ctx context.Context, f ltl.Formula, alpha *alphabet.Alphabet,
	compileClause func(context.Context, Clause, *alphabet.Alphabet) (*omega.Automaton, error)) (*omega.Automaton, error) {
	sp := obs.StartIn(ctx, "compile.formula").Stringer("formula", f).Int("alphabet", alpha.Size())
	defer sp.End()
	cntFormulasCompiled.Inc()
	nf, err := Normalize(f)
	if err != nil {
		return nil, err
	}
	sp.Int("clauses", len(nf.Clauses))
	autos := make([]*omega.Automaton, 0, len(nf.Clauses))
	for _, c := range nf.Clauses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := compileClause(ctx, c, alpha)
		if err != nil {
			return nil, err
		}
		autos = append(autos, a)
	}
	if len(autos) == 0 {
		// No clauses: the formula reduced to true.
		return omega.Universal(alpha), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prod, err := omega.IntersectAllCtx(ctx, autos...)
	if err != nil {
		return nil, err
	}
	// Quotient bisimilar states: products of clause automata often carry
	// duplicated tracking structure.
	res := prod.Reduce()
	sp.Int("states", res.NumStates()).Int("pairs", res.NumPairs())
	return res, nil
}

// CompileClauseOver compiles a single normal-form clause to its
// structurally matching κ-automaton over the given alphabet — the unit of
// work the engine's memo cache deduplicates across requests that share
// clauses.
func CompileClauseOver(ctx context.Context, c Clause, alpha *alphabet.Alphabet) (*omega.Automaton, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	esat := func(p ltl.Formula) (*lang.Property, error) {
		d, err := compile.PastToDFAOverAlphabetCtx(ctx, p, alpha)
		if err != nil {
			return nil, err
		}
		return lang.FromDFA(d), nil
	}
	switch {
	case c.kindCount() == 1 && c.Safe != nil:
		p, err := esat(c.Safe)
		if err != nil {
			return nil, err
		}
		return lang.A(p), nil
	case c.kindCount() == 1 && c.Guar != nil:
		p, err := esat(c.Guar)
		if err != nil {
			return nil, err
		}
		return lang.E(p), nil
	case c.kindCount() == 1 && c.Rec != nil:
		p, err := esat(c.Rec)
		if err != nil {
			return nil, err
		}
		return lang.R(p), nil
	case c.kindCount() == 1 && c.Pers != nil:
		p, err := esat(c.Pers)
		if err != nil {
			return nil, err
		}
		return lang.P(p), nil
	case c.Safe != nil && c.Guar != nil && c.Rec == nil && c.Pers == nil:
		ps, err := esat(c.Safe)
		if err != nil {
			return nil, err
		}
		pg, err := esat(c.Guar)
		if err != nil {
			return nil, err
		}
		return lang.SimpleObligation(ps, pg)
	case c.Rec != nil || c.Pers != nil:
		rArg, pArg := c.Rec, c.Pers
		if rArg == nil {
			rArg = ltl.False{}
		}
		if pArg == nil {
			pArg = ltl.False{}
		}
		pr, err := esat(rArg)
		if err != nil {
			return nil, err
		}
		pp, err := esat(pArg)
		if err != nil {
			return nil, err
		}
		return lang.SimpleReactivity(pr, pp)
	default:
		return nil, fmt.Errorf("core: empty clause in normal form")
	}
}

// ClassifyFormula classifies a formula semantically: it compiles the
// formula and runs the automata-view procedures.
func ClassifyFormula(f ltl.Formula, props []string) (Classification, error) {
	return ClassifyFormulaCtx(context.Background(), f, props)
}

// ClassifyFormulaCtx is ClassifyFormula with cooperative cancellation
// threaded through compilation and classification.
func ClassifyFormulaCtx(ctx context.Context, f ltl.Formula, props []string) (Classification, error) {
	a, err := CompileFormulaCtx(ctx, f, props)
	if err != nil {
		return Classification{}, err
	}
	return ClassifyAutomatonCtx(ctx, a)
}
