// Command decompose demonstrates the safety–liveness classification of §2
// and its orthogonality to the Borel hierarchy: every property splits as
// Π = Π_S ∩ Π_L with Π_S the safety closure and Π_L the liveness
// extension, and the liveness extension stays within the property's
// Borel class. The running example is the paper's own: aUb.
package main

import (
	"fmt"
	"log"

	temporal "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The paper's running example: a U b over Σ = {a, b} — written with
	// propositions a, b where exactly one holds per state.
	f := temporal.MustParseFormula("a U b")
	aut, err := temporal.CompileFormula(f, []string{"a", "b"})
	if err != nil {
		return err
	}
	c, err := temporal.ClassifyAutomaton(aut)
	if err != nil {
		return err
	}
	fmt.Printf("Π = Sat(%v): class %v, liveness: %v\n", f, c.Lowest(), temporal.IsLiveness(aut))

	parts := temporal.DecomposeSL(aut)
	cs, err := temporal.ClassifyAutomaton(parts.SafetyPart)
	if err != nil {
		return err
	}
	fmt.Printf("Π_S = cl(Π)  : class %v (the paper's a W b component)\n", cs.Lowest())
	fmt.Printf("Π_L = 𝓛(Π)   : liveness %v (the ◇b component)\n",
		temporal.IsLiveness(parts.LivenessPart))

	// Π really is the intersection.
	words := []struct {
		w       temporal.Word
		comment string
	}{
		{temporal.MustLasso("{a}{a}{b}", "{a}"), "aab a^ω ∈ aUb"},
		{temporal.MustLasso("", "{a}"), "a^ω: safe forever but never b"},
		{temporal.MustLasso("{}", "{b}"), "neither a nor b initially"},
	}
	fmt.Println()
	fmt.Printf("%-22s %-6s %-6s %-6s\n", "word", "Π", "Π_S", "Π_L")
	for _, tt := range words {
		inP, err := temporal.Holds(f, tt.w)
		if err != nil {
			return err
		}
		inS, err := parts.SafetyPart.Accepts(tt.w)
		if err != nil {
			return err
		}
		inL, err := parts.LivenessPart.Accepts(tt.w)
		if err != nil {
			return err
		}
		fmt.Printf("%-22v %-6v %-6v %-6v  (%s)\n", tt.w, inP, inS, inL, tt.comment)
		if inP != (inS && inL) {
			return fmt.Errorf("decomposition violated on %v", tt.w)
		}
	}

	// Orthogonality: the liveness extension of a κ-property is a live
	// κ-property, for each non-safety κ.
	fmt.Println()
	fmt.Println("liveness extensions stay in their Borel class:")
	ab, err := temporal.Letters("ab")
	if err != nil {
		return err
	}
	endB, err := temporal.NewProperty(".*b", ab)
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		a    *temporal.Automaton
	}{
		{"guarantee ◇b", temporal.BuildE(endB)},
		{"recurrence □◇b", temporal.BuildR(endB)},
		{"persistence ◇□b", temporal.BuildP(endB)},
	}
	for _, tt := range cases {
		le := temporal.DecomposeSL(tt.a).LivenessPart
		cl, err := temporal.ClassifyAutomaton(le)
		if err != nil {
			return err
		}
		fmt.Printf("  𝓛(%-16s) : live=%v, class %v\n",
			tt.name, temporal.IsLiveness(le), cl.Lowest())
	}

	// Uniform liveness (the refinement at the end of §2).
	fmt.Println()
	uni, err := temporal.IsUniformLiveness(temporal.BuildE(endB), 64)
	if err != nil {
		return err
	}
	fmt.Printf("◇b uniformly live: %v (σ' = b^ω extends every prefix)\n", uni)
	firstFinite, err := temporal.CompileFormula(
		temporal.MustParseFormula("(a -> F G !a) & (!a -> F G a)"), []string{"a"})
	if err != nil {
		return err
	}
	uni, err = temporal.IsUniformLiveness(firstFinite, 64)
	if err != nil {
		return err
	}
	fmt.Printf("\"first letter occurs finitely often\": live=%v, uniformly live=%v\n",
		temporal.IsLiveness(firstFinite), uni)
	return nil
}
