package core_test

import (
	"errors"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/ltl"
)

// satMatchesAutomaton checks Sat(f) = L(CompileFormula(f)) on an
// exhaustive lasso corpus over the formula's valuation alphabet — the
// temporal-logic ↔ automata bridge of Prop. 5.3, validated end to end.
func satMatchesAutomaton(t *testing.T, fstr string) {
	t.Helper()
	f := ltl.MustParse(fstr)
	props := ltl.Props(f)
	if len(props) == 0 {
		props = []string{"p"}
	}
	alpha, err := alphabet.Valuations(props)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.CompileFormula(f, props)
	if err != nil {
		t.Fatalf("CompileFormula(%s): %v", fstr, err)
	}
	maxPrefix, maxLoop := 3, 3
	if alpha.Size() > 4 {
		maxPrefix, maxLoop = 2, 2
	}
	for _, w := range gen.Lassos(alpha, maxPrefix, maxLoop) {
		want, err := eval.Holds(f, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Accepts(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			nf, _ := core.Normalize(f)
			t.Fatalf("%s: automaton disagrees with semantics on %v: got %v, want %v\nNF: %v",
				fstr, w, got, want, nf)
		}
	}
}

func TestCompileFormulaMatchesSemantics(t *testing.T) {
	formulas := []string{
		// The paper's §4 idioms.
		"G p",                                 // invariance
		"G (p -> q)",                          // partial correctness shape
		"G !(p & q)",                          // mutual exclusion shape
		"G (q -> O p)",                        // precedence
		"!q W p",                              // precedence, future form
		"p -> G q",                            // conditional safety
		"F p",                                 // guarantee / termination
		"p -> F q",                            // conditional guarantee
		"F (p & q)",                           // total correctness shape
		"G p | F q",                           // simple obligation
		"F p -> F q",                          // obligation (conditional)
		"F p -> F (q & O p)",                  // the paper's exception pattern
		"G F p",                               // recurrence
		"G (p -> F q)",                        // response
		"F G p",                               // persistence
		"G (p -> F G q)",                      // conditional persistence
		"G F p | F G q",                       // simple reactivity
		"G F p -> G F q",                      // strong fairness shape
		"(G F p -> G F q) & (G F q -> G F p)", // reactivity conjunction
		"p U q",                               // until over propositions
		"p W q",                               // unless
		"X p",                                 // next
		"X X p",                               // nested next over past… X X p is X of X p
		"p",                                   // bare state formula
		"true",
		"false",
		"G (p | F q)",                  // response in disjunctive form
		"(G p | F q) & (G q | F p)",    // 2-conjunct obligation
		"G ((p & O q) -> F (q & O p))", // response with past-laden trigger
		"F G (p <-> q)",
		"G F (p S q)",
		"q & G p", // initial condition plus invariance
		"G p & F q & G F (p & q)",
		// U/W under modalities (position-invariant elimination laws).
		"G (p U q)",
		"F (p U q)",
		"G F (p U q)",
		"F G (p U q)",
		"G (p W q)",
		"F (p W q)",
		"G F (p W q)",
		"F G (p W q)",
		// ◯ under □ / ◇ (anchored shift laws).
		"G (p -> X q)",
		"G (p -> X X q)",
		"F (p & X q)",
		"F (p & X X q)",
		"G (X p | X X q | !p)",
		"G F X p",
		"F G X p",
		// W / U disjuncts inside □ (the scoped-pattern laws).
		"G ((p & !q) -> (!p W q))",
		"G (p -> (p W q))",
		"G (p -> (p U q))",
		"G ((q -> O p) | (p U q))",
	}
	for _, fstr := range formulas {
		t.Run(fstr, func(t *testing.T) {
			satMatchesAutomaton(t, fstr)
		})
	}
}

func TestSyntacticClasses(t *testing.T) {
	tests := []struct {
		f    string
		want core.Class
	}{
		{"G p", core.Safety},
		{"G (p -> q)", core.Safety},
		{"G (q -> O p)", core.Safety},
		{"p -> G q", core.Safety},
		{"p W q", core.Safety},
		{"G p & G q", core.Safety},
		{"G (p -> X q)", core.Safety},
		{"G (p W q)", core.Safety},
		{"F p", core.Guarantee},
		{"p -> F q", core.Guarantee},
		{"p U q", core.Guarantee},
		{"F p & F q", core.Guarantee},
		{"G p | F q", core.Obligation},
		{"F p -> F q", core.Obligation},
		{"(G p | F q) & (G q | F p)", core.Obligation},
		{"G F p", core.Recurrence},
		{"G (p -> F q)", core.Recurrence},
		{"G F p & G F q", core.Recurrence},
		{"F G p", core.Persistence},
		{"G (p -> F G q)", core.Persistence},
		{"F G p & F G q", core.Persistence},
		{"G F p | F G q", core.Reactivity},
		{"G F p -> G F q", core.Reactivity},
		{"(G F p | F G q) & (G F q | F G p)", core.Reactivity},
	}
	for _, tt := range tests {
		t.Run(tt.f, func(t *testing.T) {
			got, _, err := core.SyntacticClass(ltl.MustParse(tt.f))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("SyntacticClass(%s) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

// TestSemanticVsSyntacticClass verifies that the semantic classification
// is never above the syntactic one (syntax gives an upper bound), and
// that they coincide on the paper's canonical forms with independent
// propositions.
func TestSemanticVsSyntacticClass(t *testing.T) {
	exact := []struct {
		f    string
		want core.Class
	}{
		{"G p", core.Safety},
		{"F p", core.Guarantee},
		{"G p | F q", core.Obligation},
		{"G F p", core.Recurrence},
		{"F G p", core.Persistence},
		{"G F p | F G q", core.Reactivity},
	}
	for _, tt := range exact {
		t.Run(tt.f, func(t *testing.T) {
			c, err := core.ClassifyFormula(ltl.MustParse(tt.f), nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Lowest() != tt.want {
				t.Errorf("semantic class of %s = %v, want %v (%+v)", tt.f, c.Lowest(), tt.want, c)
			}
		})
	}
}

// TestResponsivenessSummary reproduces the §4 responsiveness table: the
// five variants of "p stimulates q" land in five different classes.
func TestResponsivenessSummary(t *testing.T) {
	tests := []struct {
		f    string
		want core.Class
	}{
		{"p -> F q", core.Guarantee},
		{"F p -> F (q & O p)", core.Obligation},
		{"G (p -> F q)", core.Recurrence},
		{"p -> F G q", core.Persistence},
		{"G F p -> G F q", core.Reactivity},
	}
	for _, tt := range tests {
		t.Run(tt.f, func(t *testing.T) {
			c, err := core.ClassifyFormula(ltl.MustParse(tt.f), nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Lowest() != tt.want {
				t.Errorf("%s: semantic class %v, want %v (%+v)", tt.f, c.Lowest(), tt.want, c)
			}
		})
	}
}

func TestNormalizeUnsupported(t *testing.T) {
	unsupported := []string{
		"X (p U q)",       // until under bare next
		"G ((p U q) U q)", // nested until operands
		"G (p -> X F q)",  // strict response (X over modal disjunct)
		"F (p & X G q)",   // X over modal conjunct
	}
	for _, fstr := range unsupported {
		t.Run(fstr, func(t *testing.T) {
			_, err := core.Normalize(ltl.MustParse(fstr))
			if err == nil {
				t.Skip("normalizer handled it — acceptable, fragment may grow")
			}
			if !errors.Is(err, core.ErrNotNormalizable) {
				t.Errorf("want ErrNotNormalizable, got %v", err)
			}
		})
	}
}

func TestNormalFormReconstruction(t *testing.T) {
	// The reconstructed normal-form formula must be semantically
	// equivalent to the original (checked pointwise on a corpus).
	formulas := []string{"G (p -> F q)", "p -> G q", "G p | F q", "p U q", "X p"}
	alpha, err := alphabet.Valuations([]string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	corpus := gen.Lassos(alpha, 2, 2)
	for _, fstr := range formulas {
		f := ltl.MustParse(fstr)
		nf, err := core.Normalize(f)
		if err != nil {
			t.Fatal(err)
		}
		g := nf.Formula()
		for _, w := range corpus {
			x, err := eval.Holds(f, w)
			if err != nil {
				t.Fatal(err)
			}
			y, err := eval.Holds(g, w)
			if err != nil {
				t.Fatal(err)
			}
			if x != y {
				t.Fatalf("%s: NF %q differs on %v", fstr, nf.String(), w)
			}
		}
	}
}

func TestUnitFormula(t *testing.T) {
	p := ltl.Prop{Name: "p"}
	tests := []struct {
		u    core.Unit
		want string
	}{
		{core.Unit{Kind: core.UnitSafety, Arg: p}, "G p"},
		{core.Unit{Kind: core.UnitGuarantee, Arg: p}, "F p"},
		{core.Unit{Kind: core.UnitRecurrence, Arg: p}, "G F p"},
		{core.Unit{Kind: core.UnitPersistence, Arg: p}, "F G p"},
	}
	for _, tt := range tests {
		if got := tt.u.Formula().String(); got != tt.want {
			t.Errorf("Unit %v = %q, want %q", tt.u.Kind, got, tt.want)
		}
	}
	for _, k := range []core.UnitKind{core.UnitSafety, core.UnitGuarantee, core.UnitRecurrence, core.UnitPersistence} {
		if k.String() == "" {
			t.Error("empty unit kind name")
		}
	}
}

func TestCompileFormulaOverLetters(t *testing.T) {
	// Plain-letter alphabets: the paper's finite-Σ convention.
	f := ltl.MustParse("G F b")
	a, err := core.CompileFormulaOver(f, ab)
	if err != nil {
		t.Fatal(err)
	}
	c := core.ClassifyAutomaton(a)
	if c.Lowest() != core.Recurrence {
		t.Errorf("GF b over letters: %v", c.Lowest())
	}
}
