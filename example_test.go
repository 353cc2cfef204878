package temporal_test

import (
	"fmt"

	temporal "repro"
)

// Classify a response property: every request is eventually acknowledged.
func ExampleClassify() {
	f := temporal.MustParseFormula("G (req -> F ack)")
	c, err := temporal.Classify(f)
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Lowest())
	fmt.Println(c.Classes())
	// Output:
	// recurrence
	// [recurrence reactivity]
}

// The linguistic view: build (a*b)^ω as R(Σ*b) and inspect its topology.
func ExampleBuildR() {
	ab, _ := temporal.Letters("ab")
	phi, _ := temporal.NewProperty(".*b", ab)
	aut := temporal.BuildR(phi)
	fmt.Println("Gδ:", temporal.IsGdelta(aut))
	fmt.Println("Fσ:", temporal.IsFsigma(aut))
	fmt.Println("dense:", temporal.IsDense(aut))
	// Output:
	// Gδ: true
	// Fσ: false
	// dense: true
}

// Evaluate a formula on a concrete computation.
func ExampleHolds() {
	f := temporal.MustParseFormula("G (req -> F ack)")
	good := temporal.MustLasso("", "{req}{ack}")
	bad := temporal.MustLasso("{ack}", "{req}")
	g, _ := temporal.Holds(f, good)
	b, _ := temporal.Holds(f, bad)
	fmt.Println(g, b)
	// Output: true false
}

// The safety–liveness decomposition of the paper's running example aUb.
func ExampleDecomposeSL() {
	f := temporal.MustParseFormula("a U b")
	aut, _ := temporal.CompileFormula(f, []string{"a", "b"})
	parts := temporal.DecomposeSL(aut)
	fmt.Println("safety part is closed:", temporal.IsClosed(parts.SafetyPart))
	fmt.Println("liveness part is dense:", temporal.IsDense(parts.LivenessPart))
	// Output:
	// safety part is closed: true
	// liveness part is dense: true
}

// Verify Peterson's algorithm against both halves of its specification.
func ExampleCheck_verify() {
	sys, _ := temporal.Peterson()
	mutex, _ := temporal.Check(temporal.CheckRequest{
		Kind: temporal.CheckVerify, System: sys, Formula: temporal.MustParseFormula("G !(c1 & c2)"),
	})
	access, _ := temporal.Check(temporal.CheckRequest{
		Kind: temporal.CheckVerify, System: sys, Formula: temporal.MustParseFormula("G (w1 -> F c1)"),
	})
	fmt.Println(mutex.Holds, access.Holds)
	// Output: true true
}

// Normalize a conditional into the paper's canonical form.
func ExampleNormalize() {
	nf, _ := temporal.Normalize(temporal.MustParseFormula("p -> G q"))
	fmt.Println(nf)
	// Output: (G (O (!(Y true) & p) -> q))
}
