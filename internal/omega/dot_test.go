package omega_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/omega"
)

func TestDot(t *testing.T) {
	a := lang.R(lang.MustRegex(".*b", ab))
	out := a.Dot("recurrence")
	for _, want := range []string{
		"digraph \"recurrence\"", "rankdir=LR", "init ->",
		"doublecircle", "q0 -> q1", "R1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Dot output missing %q:\n%s", want, out)
		}
	}
	// Merged parallel edges: a universal one-state automaton has a
	// single self-loop labeled with both symbols.
	u := lang.A(lang.MustRegex(".^+", ab)) // Σ^ω as safety automaton
	dot := u.Dot("top")
	if strings.Count(dot, "->") > 3 { // init edge + at most 2 state edges
		t.Errorf("parallel edges not merged:\n%s", dot)
	}
}

// TestLabelNamesStatesByNumber: Label names state q "q<q>" — on a
// product, on its Reduce quotient and in String's output alike.
func TestLabelNamesStatesByNumber(t *testing.T) {
	prod, err := lang.R(lang.MustRegex(".*a", ab)).Intersect(lang.R(lang.MustRegex(".*b", ab)))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*omega.Automaton{prod, prod.Reduce()} {
		for q := 0; q < a.NumStates(); q++ {
			if got, want := a.Label(q), fmt.Sprintf("q%d", q); got != want {
				t.Errorf("Label(%d) = %q, want %q", q, got, want)
			}
		}
	}
	if s := prod.String(); !strings.Contains(s, "start q0") {
		t.Errorf("String does not name the start q0:\n%s", s)
	}
}
