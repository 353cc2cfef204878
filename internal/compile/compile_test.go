package compile_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/word"
)

var ab = alphabet.MustLetters("ab")

// allWords enumerates all non-empty words up to maxLen.
func allWords(alpha *alphabet.Alphabet, maxLen int) []word.Finite {
	var out []word.Finite
	frontier := []word.Finite{{}}
	for l := 1; l <= maxLen; l++ {
		var next []word.Finite
		for _, w := range frontier {
			for _, s := range alpha.Symbols() {
				nw := append(append(word.Finite{}, w...), s)
				out = append(out, nw)
				next = append(next, nw)
			}
		}
		frontier = next
	}
	return out
}

func TestPastToDFARejectsFuture(t *testing.T) {
	if _, err := compile.PastToDFA(ltl.MustParse("F p"), nil); err == nil {
		t.Fatal("future formula must be rejected")
	}
	if _, err := compile.PastToDFAOverAlphabet(ltl.MustParse("p U q"), ab); err == nil {
		t.Fatal("future formula must be rejected")
	}
}

func TestPastToDFAMissingProp(t *testing.T) {
	if _, err := compile.PastToDFA(ltl.MustParse("p & q"), []string{"p"}); err == nil {
		t.Fatal("missing proposition must be rejected")
	}
}

func TestPastToDFAPaperExample(t *testing.T) {
	// esat(b ∧ Z H a) = a*b over {a,b}.
	d, err := compile.PastToDFAOverAlphabet(ltl.MustParse("b & Z H a"), ab)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWords(ab, 6) {
		want := true
		for i := 0; i < w.Len()-1; i++ {
			if w.At(i) != "a" {
				want = false
			}
		}
		if w.At(w.Len()-1) != "b" {
			want = false
		}
		if got := d.Accepts(w); got != want {
			t.Fatalf("a*b automaton wrong on %v: %v", w, got)
		}
	}
}

// TestPastToDFAMatchesEndSatisfies cross-validates the compiled DFA
// against the direct end-satisfaction evaluator on random past formulas.
func TestPastToDFAMatchesEndSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	words := allWords(ab, 5)
	for trial := 0; trial < 120; trial++ {
		p := gen.RandomFormula(rng, gen.FormulaOpts{Props: []string{"a", "b"}, MaxDepth: 4, AllowPast: true})
		d, err := compile.PastToDFAOverAlphabet(p, ab)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			want, err := eval.EndSatisfies(p, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Accepts(w); got != want {
				t.Fatalf("DFA(%q) wrong on %v: got %v, want %v", p.String(), w, got, want)
			}
		}
	}
}

// TestPastToDFAValuations does the same over a valuation alphabet.
func TestPastToDFAValuations(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	alpha, err := alphabet.Valuations([]string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(alpha, 3)
	for trial := 0; trial < 60; trial++ {
		f := gen.RandomFormula(rng, gen.FormulaOpts{Props: []string{"p", "q"}, MaxDepth: 3, AllowPast: true})
		d, err := compile.PastToDFA(f, []string{"p", "q"})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			want, err := eval.EndSatisfies(f, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Accepts(w); got != want {
				t.Fatalf("DFA(%q) wrong on %v", f.String(), w)
			}
		}
	}
}

// TestPastToDFASharedOperands: operands that repeat, or that several
// operators share, resolve to one slot of the truth vector each; the DFA
// still matches the end-satisfaction evaluator, over plain letters and
// over the valuations of three propositions.
func TestPastToDFASharedOperands(t *testing.T) {
	formulas := []string{
		"(a S b) & !(a S b)",
		"Y a | Y a",
		"H (a -> O a)",
		"(a S b) | Y (a S b)",
		"(a B b) <-> (a S b)",
		"Z (b S a) & Y (b S a)",
		"H O a | O H a",
		"((a S b) S (a S b)) & !c",
		"Y (c -> Y c) & Z (c -> Y c)",
	}
	vals, err := alphabet.Valuations([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alpha  *alphabet.Alphabet
		maxLen int
	}{{alphabet.MustLetters("abc"), 5}, {vals, 3}} {
		words := allWords(tc.alpha, tc.maxLen)
		for _, text := range formulas {
			p := ltl.MustParse(text)
			d, err := compile.PastToDFAOverAlphabet(p, tc.alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range words {
				want, err := eval.EndSatisfies(p, w)
				if err != nil {
					t.Fatal(err)
				}
				if got := d.Accepts(w); got != want {
					t.Fatalf("DFA(%s) over %v wrong on %v: got %v, want %v", text, tc.alpha, w, got, want)
				}
			}
		}
	}
}

// TestEsatMinimizesOnce: the compiled past DFA is already minimal, so
// lang.FromDFA keeps it and runs no splitter pass — the dfa.minimize
// site armed at its first hit does not fire.
func TestEsatMinimizesOnce(t *testing.T) {
	defer fault.Reset()
	d, err := compile.PastToDFAOverAlphabet(ltl.MustParse("(a S b) & Y a"), ab)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.InjectError(fault.SiteDFAMinimize, 1, errors.New("boom"))()
	if p := lang.FromDFA(d); p.DFA() != d {
		t.Fatal("FromDFA replaced the compiled DFA")
	}
	if fault.Fired(fault.SiteDFAMinimize) {
		t.Fatal("FromDFA ran a splitter pass on a compiled past DFA")
	}
}

func TestStateCap(t *testing.T) {
	// A conjunction of many independent Y-chains forces state blowup past
	// a tiny cap.
	f := ltl.MustParse("Y Y Y a & Y Y b & O a & H b & Y(a S b)")
	if _, err := compile.PastToDFACapped(f, []string{"a", "b"}, 2); err == nil {
		t.Fatal("tiny cap should fail")
	}
}

func TestEsat(t *testing.T) {
	p, err := compile.EsatOverAlphabet(ltl.MustParse("b"), ab)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(word.FiniteFromString("ab")) {
		t.Error("esat(b) should contain ab (ends in b)")
	}
	if p.Contains(word.FiniteFromString("ba")) {
		t.Error("esat(b) should not contain ba")
	}
	if _, err := compile.Esat(ltl.MustParse("F p"), nil); err == nil {
		t.Error("Esat of future formula should fail")
	}
	if _, err := compile.EsatOverAlphabet(ltl.MustParse("F p"), ab); err == nil {
		t.Error("EsatOverAlphabet of future formula should fail")
	}
	if _, err := compile.Esat(ltl.MustParse("p S q"), []string{"p", "q", "r"}); err != nil {
		t.Errorf("Esat with extra props should work: %v", err)
	}
}
