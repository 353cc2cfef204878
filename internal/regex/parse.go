package regex

import (
	"fmt"
	"strconv"
)

// Parse parses an (ω-)regular expression in the paper's notation.
//
// Grammar (whitespace ignored):
//
//	expr    := term ('+' term)*
//	term    := factor factor*
//	factor  := atom suffix*
//	suffix  := '*' | '^' ('+' | 'w' | integer)
//	atom    := symbol | '.' | '0' or '∅' (empty language) | 'ε' | '(' expr ')'
//
// Symbols are single letters (a-z, A-Z) or digits 1-9; '.' denotes Σ.
// ω-powers must be in tail position (validated).
func Parse(input string) (Node, error) {
	p := &parser{src: []rune(sanitize(input))}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("regex: unexpected %q at position %d in %q", string(p.src[p.pos]), p.pos, input)
	}
	if err := validateOmegaPositions(n, true); err != nil {
		return nil, err
	}
	if expandedSize(n) > MaxExpandedSize {
		return nil, fmt.Errorf("regex: %q expands to more than %d symbols once its powers ^n are written out (MaxExpandedSize)", input, MaxExpandedSize)
	}
	return n, nil
}

// MaxExpandedSize bounds the size of an expression with every power ^n
// written out as n copies of its operand: each symbol, '.', ε, ∅, *, ⁺
// and ω counts one, concatenation and union add their operands' sizes,
// and ^n multiplies its operand's size by n (^0 counts one). Compiling
// a^n takes time quadratic in n (a^4096 about a third of a second,
// a^55555 half a minute), so Parse rejects larger expressions. The bound
// does not cap determinization: a power of a starred body can still cost
// time cubic in n ((a*bb*)^128 takes about 3 s).
const MaxExpandedSize = 2048

// expandedSize is the size MaxExpandedSize bounds, saturating just above
// the bound so that no power can overflow it.
func expandedSize(n Node) int {
	const over = MaxExpandedSize + 1
	switch t := n.(type) {
	case Concat:
		return min(over, expandedSize(t.A)+expandedSize(t.B))
	case Union:
		return min(over, expandedSize(t.A)+expandedSize(t.B))
	case Star:
		return min(over, expandedSize(t.A)+1)
	case Plus:
		return min(over, expandedSize(t.A)+1)
	case Omega:
		return min(over, expandedSize(t.A)+1)
	case Pow:
		if t.N == 0 {
			return 1
		}
		a := expandedSize(t.A)
		if t.N > over/a {
			return over
		}
		return min(over, t.N*a)
	default:
		return 1
	}
}

// MustParse is Parse but panics on error; for fixtures.
func MustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src []rune
	pos int
}

func (p *parser) peek() rune {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) next() rune {
	r := p.peek()
	p.pos++
	return r
}

func (p *parser) parseExpr() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek() == '+' {
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = Union{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		r := p.peek()
		if r == 0 || r == '+' || r == ')' {
			return left, nil
		}
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = Concat{A: left, B: right}
	}
}

func (p *parser) parseFactor() (Node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*':
			p.next()
			atom = Star{A: atom}
		case '^':
			p.next()
			switch r := p.peek(); {
			case r == '+':
				p.next()
				atom = Plus{A: atom}
			case r == 'w' || r == 'ω':
				p.next()
				atom = Omega{A: atom}
			case r >= '0' && r <= '9':
				start := p.pos
				for c := p.peek(); c >= '0' && c <= '9'; c = p.peek() {
					p.next()
				}
				n, err := strconv.Atoi(string(p.src[start:p.pos]))
				if err != nil {
					return nil, fmt.Errorf("regex: bad power: %w", err)
				}
				atom = Pow{A: atom, N: n}
			default:
				return nil, fmt.Errorf("regex: expected '+', 'w' or integer after '^' at %d", p.pos)
			}
		default:
			return atom, nil
		}
	}
}

func (p *parser) parseAtom() (Node, error) {
	switch r := p.peek(); {
	case r == '(':
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("regex: missing ')' at %d", p.pos)
		}
		p.next()
		return inner, nil
	case r == '.':
		p.next()
		return Any{}, nil
	case r == '0' || r == '∅':
		p.next()
		return Empty{}, nil
	case r == 'ε':
		p.next()
		return Eps{}, nil
	case isSymbolRune(r):
		p.next()
		return Sym{S: symOf(r)}, nil
	case r == 0:
		return nil, fmt.Errorf("regex: unexpected end of input")
	default:
		return nil, fmt.Errorf("regex: unexpected %q at %d", string(r), p.pos)
	}
}

func isSymbolRune(r rune) bool {
	// 'w' is a valid symbol rune outside of '^w' position; only '^'
	// interprets it specially.
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '1' && r <= '9')
}
