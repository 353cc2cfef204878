package regex

import (
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// FuzzRegexParse feeds arbitrary expression-shaped strings to the regex
// parser: no panics, successful parses must survive the print/re-parse
// round trip, and every parsed expression must compile (symbols outside
// the alphabet being the one legitimate compile-time error). The seed
// corpus covers the whole grammar — union, star, ω-power, numeric
// repetition, ε — plus unbalanced and empty near-misses.
func FuzzRegexParse(f *testing.F) {
	seeds := []string{
		"a",
		"(a+b)*",
		".*b",
		"a^w",
		"(a+b)*a^w",
		"ab3",
		"ε",
		"a.b",
		"((a))",
		"(a",  // unbalanced
		"+a",  // operator with no left operand
		"a^",  // dangling power
		"3",   // bare repetition count
		"",    // empty
		"w*w", // 'w' as a plain symbol vs ω-power marker
		"a*b*c*",
		// Past MaxExpandedSize: compiling these took half a minute
		// before Parse bounded the expanded size.
		"a^55555w",
		"(a^50)^50",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	alpha := alphabet.MustLetters("abw")
	okErr := func(err error) bool {
		return err == nil || strings.Contains(err.Error(), "not in alphabet")
	}
	f.Fuzz(func(t *testing.T, input string) {
		node, err := Parse(input)
		if err != nil {
			return
		}
		printed := node.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("parse(%q) ok but print %q does not re-parse: %v", input, printed, err)
		}
		if printed != again.String() {
			t.Fatalf("round trip changed %q: %q vs %q", input, printed, again)
		}
		if ContainsOmega(node) {
			if _, err := CompileOmega(node, alpha); !okErr(err) {
				t.Fatalf("valid ω-parse %q failed to compile: %v", node, err)
			}
		} else {
			if _, err := Compile(node, alpha); !okErr(err) {
				t.Fatalf("valid parse %q failed to compile: %v", node, err)
			}
		}
	})
}
