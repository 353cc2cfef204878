// Package regex parses and compiles the extended regular expressions used
// throughout the paper, in the paper's own notation: `+` is union,
// juxtaposition is concatenation, `*` is Kleene star, `^+` is Kleene plus,
// `^n` is n-fold repetition, `.` stands for Σ (any symbol), and `^w` is the
// infinite power ω — so the paper's (a*b)^ω is written "(a*b)^w".
//
// Finitary expressions compile to DFAs (via an ε-NFA and the subset
// construction). ω-regular expressions compile to nondeterministic Büchi
// automata that support exact membership tests for lasso words; they are
// used generatively (building and checking test corpora), never as the
// source of deterministic property automata, so no Safra construction is
// needed anywhere in the repository.
package regex

import (
	"fmt"
	"strings"

	"repro/internal/alphabet"
)

// Node is a node of the (ω-)regular expression AST.
type Node interface {
	fmt.Stringer
	isNode()
}

// Empty denotes the empty language ∅.
type Empty struct{}

// Eps denotes the language {ε}.
type Eps struct{}

// Sym denotes a single-symbol language.
type Sym struct{ S alphabet.Symbol }

// Any denotes Σ, the language of all single-symbol words.
type Any struct{}

// Concat denotes L(A)·L(B).
type Concat struct{ A, B Node }

// Union denotes L(A) ∪ L(B).
type Union struct{ A, B Node }

// Star denotes L(A)*.
type Star struct{ A Node }

// Plus denotes L(A)⁺.
type Plus struct{ A Node }

// Pow denotes L(A)^N for a fixed N ≥ 0.
type Pow struct {
	A Node
	N int
}

// Omega denotes the infinite power L(A)^ω. It may appear only in the tail
// position of an ω-regular expression.
type Omega struct{ A Node }

func (Empty) isNode()  {}
func (Eps) isNode()    {}
func (Sym) isNode()    {}
func (Any) isNode()    {}
func (Concat) isNode() {}
func (Union) isNode()  {}
func (Star) isNode()   {}
func (Plus) isNode()   {}
func (Pow) isNode()    {}
func (Omega) isNode()  {}

func (Empty) String() string { return "∅" }
func (Eps) String() string   { return "ε" }
func (s Sym) String() string {
	if len(s.S) == 1 {
		return string(s.S)
	}
	return "'" + string(s.S) + "'"
}
func (Any) String() string { return "." }

func parenthesize(n Node) string {
	switch n.(type) {
	case Union, Concat:
		return "(" + n.String() + ")"
	default:
		return n.String()
	}
}

func (c Concat) String() string {
	l := c.A.String()
	if _, ok := c.A.(Union); ok {
		l = "(" + l + ")"
	}
	r := c.B.String()
	if _, ok := c.B.(Union); ok || endsWithPow(c.A) && r[0] >= '1' && r[0] <= '9' {
		// A digit symbol right after a^n would read as more exponent.
		r = "(" + r + ")"
	}
	return l + r
}

// endsWithPow reports whether n prints ending in a power's exponent.
func endsWithPow(n Node) bool {
	switch n := n.(type) {
	case Pow:
		return true
	case Concat:
		_, union := n.B.(Union)
		return !union && endsWithPow(n.B)
	}
	return false
}

func (u Union) String() string { return u.A.String() + "+" + u.B.String() }
func (s Star) String() string  { return parenthesize(s.A) + "*" }
func (p Plus) String() string  { return parenthesize(p.A) + "^+" }
func (p Pow) String() string   { return fmt.Sprintf("%s^%d", parenthesize(p.A), p.N) }
func (o Omega) String() string { return parenthesize(o.A) + "^w" }

// ContainsOmega reports whether the expression mentions an infinite power.
func ContainsOmega(n Node) bool {
	switch t := n.(type) {
	case Omega:
		return true
	case Concat:
		return ContainsOmega(t.A) || ContainsOmega(t.B)
	case Union:
		return ContainsOmega(t.A) || ContainsOmega(t.B)
	case Star:
		return ContainsOmega(t.A)
	case Plus:
		return ContainsOmega(t.A)
	case Pow:
		return ContainsOmega(t.A)
	default:
		return false
	}
}

// validateOmegaPositions checks that ω-powers occur only where an
// ω-regular expression allows them: in tail position of concatenations, at
// the top of unions, and never under *, ⁺, ^n, or another ω.
func validateOmegaPositions(n Node, tail bool) error {
	switch t := n.(type) {
	case Omega:
		if !tail {
			return fmt.Errorf("regex: ω-power %v not in tail position", n)
		}
		if ContainsOmega(t.A) {
			return fmt.Errorf("regex: nested ω-power in %v", n)
		}
		return nil
	case Concat:
		if err := validateOmegaPositions(t.A, false); err != nil {
			return err
		}
		return validateOmegaPositions(t.B, tail)
	case Union:
		if err := validateOmegaPositions(t.A, tail); err != nil {
			return err
		}
		return validateOmegaPositions(t.B, tail)
	case Star:
		return validateOmegaPositions(t.A, false)
	case Plus:
		return validateOmegaPositions(t.A, false)
	case Pow:
		return validateOmegaPositions(t.A, false)
	default:
		return nil
	}
}

// Symbols returns the set of concrete symbols mentioned in the expression.
func Symbols(n Node) []alphabet.Symbol {
	seen := map[alphabet.Symbol]bool{}
	var out []alphabet.Symbol
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case Sym:
			if !seen[t.S] {
				seen[t.S] = true
				out = append(out, t.S)
			}
		case Concat:
			walk(t.A)
			walk(t.B)
		case Union:
			walk(t.A)
			walk(t.B)
		case Star:
			walk(t.A)
		case Plus:
			walk(t.A)
		case Pow:
			walk(t.A)
		case Omega:
			walk(t.A)
		}
	}
	walk(n)
	return out
}

// sanitize strips whitespace for the parser.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return -1
		}
		return r
	}, s)
}
