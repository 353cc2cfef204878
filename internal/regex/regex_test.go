package regex

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/word"
)

var ab = alphabet.MustLetters("ab")

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", "(a", "a)", "a^", "a^x", "+a", "a++b", "a^w b", // ω not in tail (concat after ω)
		"(a^w)*", "(a^w)^w", "a^wb^w(", "*",
	}
	for _, expr := range bad {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) should fail", expr)
		}
	}
}

// TestParseBoundsExpandedSize: powers multiply, concatenation and union
// add, and Parse rejects an expression past MaxExpandedSize at once,
// naming the bound, instead of leaving a compile that takes half a minute.
func TestParseBoundsExpandedSize(t *testing.T) {
	start := time.Now()
	for _, expr := range []string{
		"a^55555w", "(a^50)^50", "a^2049", "a^2048b", "a^1024+b^1025",
		"((a+b)^2)^1025", "(a^0)^3000", "(a^+)^1025", "a^2048w", "a^99999999999999999",
	} {
		_, err := Parse(expr)
		if err == nil {
			t.Errorf("Parse(%q) should exceed MaxExpandedSize", expr)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxExpandedSize)) {
			t.Errorf("Parse(%q): error %q does not name the bound", expr, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejecting oversized powers took %v", d)
	}
	for _, expr := range []string{
		"a^2048", "a^1024b^1024", "(a^32)^64", "a^0", "(a^6)^+a^2+(a^6)*a^4", "a^64.*", "(ab^2)^682b^w", "(a^+)^1024",
	} {
		if _, err := Parse(expr); err != nil {
			t.Errorf("Parse(%q) within the bound failed: %v", expr, err)
		}
	}
}

func TestParseOmegaPositions(t *testing.T) {
	good := []string{"a^w", "ab^w", "(a*b)^w", "a^w+b^w", "a(a+b)^w", ".*b^w"}
	for _, expr := range good {
		if _, err := Parse(expr); err != nil {
			t.Errorf("Parse(%q) failed: %v", expr, err)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	exprs := []string{"a^+b*", "(a+b)*b", "(a*b)^w", "a^3", "a^w+b^w"}
	for _, expr := range exprs {
		n, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", n.String(), err)
		}
		if n.String() != n2.String() {
			t.Errorf("round trip %q → %q → %q", expr, n.String(), n2.String())
		}
	}
}

// matchRef is a brute-force reference matcher for finitary expressions.
func matchRef(n Node, w word.Finite) bool {
	switch t := n.(type) {
	case Empty:
		return false
	case Eps:
		return len(w) == 0
	case Sym:
		return len(w) == 1 && w[0] == t.S
	case Any:
		return len(w) == 1
	case Concat:
		for cut := 0; cut <= len(w); cut++ {
			if matchRef(t.A, w[:cut]) && matchRef(t.B, w[cut:]) {
				return true
			}
		}
		return false
	case Union:
		return matchRef(t.A, w) || matchRef(t.B, w)
	case Star:
		if len(w) == 0 {
			return true
		}
		for cut := 1; cut <= len(w); cut++ {
			if matchRef(t.A, w[:cut]) && matchRef(Star{A: t.A}, w[cut:]) {
				return true
			}
		}
		return matchRef(t.A, w)
	case Plus:
		return matchRef(Concat{A: t.A, B: Star{A: t.A}}, w)
	case Pow:
		if t.N == 0 {
			return len(w) == 0
		}
		return matchRef(Concat{A: t.A, B: Pow{A: t.A, N: t.N - 1}}, w)
	default:
		return false
	}
}

func allWords(alpha *alphabet.Alphabet, maxLen int) []word.Finite {
	out := []word.Finite{{}}
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

func TestCompileAgainstReference(t *testing.T) {
	exprs := []string{
		"a", ".", "ε", "0", "a^+b*", "(a+b)*b", "(ab+ba)^+", "a^3b^2",
		"a*b*a*", "(a+ba)*", "((a+b)(a+b))*",
	}
	for _, expr := range exprs {
		n := MustParse(expr)
		d, err := Compile(n, ab)
		if err != nil {
			t.Fatalf("Compile(%q): %v", expr, err)
		}
		for _, w := range allWords(ab, 6) {
			want := matchRef(n, w)
			if len(w) == 0 {
				continue // finitary properties live in Σ⁺; ε is out of scope
			}
			if got := d.Accepts(w); got != want {
				t.Fatalf("%q on %v: got %v, want %v", expr, w, got, want)
			}
		}
	}
}

func TestCompileRejectsOmega(t *testing.T) {
	if _, err := Compile(MustParse("a^w"), ab); err == nil {
		t.Fatal("Compile must reject ω-expressions")
	}
	if _, err := CompileOmega(MustParse("a^+"), ab); err == nil {
		t.Fatal("CompileOmega must reject finitary expressions")
	}
}

func TestCompileUnknownSymbol(t *testing.T) {
	if _, err := Compile(MustParse("c"), ab); err == nil {
		t.Fatal("symbol outside alphabet should fail")
	}
}

func TestOmegaMembership(t *testing.T) {
	tests := []struct {
		expr string
		in   []word.Lasso
		out  []word.Lasso
	}{
		{
			expr: "(a*b)^w", // infinitely many b's
			in: []word.Lasso{
				word.MustLassoStrings("", "b"),
				word.MustLassoStrings("", "ab"),
				word.MustLassoStrings("aaa", "aab"),
			},
			out: []word.Lasso{
				word.MustLassoStrings("", "a"),
				word.MustLassoStrings("bbb", "a"),
			},
		},
		{
			expr: "a^w+a^+b^w", // A(a⁺b*) from the paper
			in: []word.Lasso{
				word.MustLassoStrings("", "a"),
				word.MustLassoStrings("a", "b"),
				word.MustLassoStrings("aaa", "b"),
			},
			out: []word.Lasso{
				word.MustLassoStrings("", "b"),
				word.MustLassoStrings("ab", "a"),
				word.MustLassoStrings("", "ab"),
			},
		},
		{
			expr: "a^+b*(a+b)^w", // E(a⁺b*) = a⁺b*·Σ^ω
			in: []word.Lasso{
				word.MustLassoStrings("a", "b"),
				word.MustLassoStrings("a", "a"),
				word.MustLassoStrings("ab", "ab"),
			},
			out: []word.Lasso{
				word.MustLassoStrings("", "b"),
				word.MustLassoStrings("b", "a"),
			},
		},
		{
			expr: ".*b^w", // P(Σ*b): eventually only b's
			in: []word.Lasso{
				word.MustLassoStrings("", "b"),
				word.MustLassoStrings("aaab", "b"),
			},
			out: []word.Lasso{
				word.MustLassoStrings("", "ab"),
				word.MustLassoStrings("b", "a"),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			b, err := CompileOmegaString(tt.expr, ab)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tt.in {
				if !b.AcceptsLasso(w) {
					t.Errorf("%s should accept %v", tt.expr, w)
				}
			}
			for _, w := range tt.out {
				if b.AcceptsLasso(w) {
					t.Errorf("%s should reject %v", tt.expr, w)
				}
			}
		})
	}
}

func TestOmegaNullableBody(t *testing.T) {
	// (a*)^w = a^ω: nullable bodies must not admit non-a words or get
	// stuck on ε-cycles.
	b := MustCompileOmegaString("(a*)^w", ab)
	if !b.AcceptsLasso(word.MustLassoStrings("", "a")) {
		t.Error("(a*)^w should accept a^ω")
	}
	if b.AcceptsLasso(word.MustLassoStrings("", "b")) {
		t.Error("(a*)^w should reject b^ω")
	}
	if b.AcceptsLasso(word.MustLassoStrings("a", "b")) {
		t.Error("(a*)^w should reject ab^ω")
	}
}

func TestWitness(t *testing.T) {
	tests := []struct {
		expr  string
		empty bool
	}{
		{"(a*b)^w", false},
		{"a^+b^w", false},
		{"0^w", true},
		{"a(0)^w", true},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			b, err := CompileOmegaString(tt.expr, ab)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := b.Witness()
			if tt.empty {
				if ok {
					t.Fatalf("expected empty language, got witness %v", w)
				}
				return
			}
			if !ok {
				t.Fatal("expected a witness")
			}
			if !b.AcceptsLasso(w) {
				t.Fatalf("witness %v is not accepted by its own automaton", w)
			}
		})
	}
}

func TestSymbols(t *testing.T) {
	syms := Symbols(MustParse("(a+b)*c^w"))
	if len(syms) != 3 {
		t.Fatalf("Symbols = %v", syms)
	}
}
