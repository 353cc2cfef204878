// Command mutex reproduces the paper's motivating example: specifying and
// verifying a mutual exclusion algorithm. It shows
//
//  1. the classic underspecification trap — the do-nothing system
//     satisfies the safety half of the specification;
//  2. that adding the accessibility (response/recurrence) property rules
//     the trivial implementation out;
//  3. that Peterson's algorithm satisfies the complete specification,
//     verified with the safety proof principle (invariance, implicit
//     induction) and the automata-based model checker.
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
	mutexSpec := temporal.MustParseFormula("G !(c1 & c2)")
	access1 := temporal.MustParseFormula("G (w1 -> F c1)")
	access2 := temporal.MustParseFormula("G (w2 -> F c2)")

	// The two halves of the specification live in different classes.
	for _, f := range []temporal.Formula{mutexSpec, access1} {
		c, err := temporal.Classify(f)
		if err != nil {
			return err
		}
		fmt.Printf("spec %-22v class %v\n", f, c.Lowest())
	}
	fmt.Println()

	// 1. The trivial "implementation": nobody ever enters.
	trivial, err := temporal.TrivialMutex()
	if err != nil {
		return err
	}
	res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: trivial, Formula: mutexSpec})
	if err != nil {
		return err
	}
	fmt.Printf("trivial system ⊨ mutual exclusion: %v (the trap!)\n", res.Holds)
	res, err = temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: trivial, Formula: access1})
	if err != nil {
		return err
	}
	fmt.Printf("trivial system ⊨ accessibility:    %v", res.Holds)
	if !res.Holds {
		pre, loop := res.Counterexample.Names(trivial)
		fmt.Printf("   counterexample: %v (%v)^ω", pre, loop)
	}
	fmt.Println()
	fmt.Println()

	// 2. Peterson's algorithm satisfies the full specification.
	peterson, err := temporal.Peterson()
	if err != nil {
		return err
	}
	fmt.Printf("Peterson: %d states, %d transitions\n",
		peterson.NumStates(), len(peterson.Transitions()))
	for _, f := range []temporal.Formula{mutexSpec, access1, access2} {
		res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: peterson, Formula: f})
		if err != nil {
			return err
		}
		fmt.Printf("  Peterson ⊨ %-22v : %v\n", f, res.Holds)
	}

	// 3. The safety half by the invariance principle: reachability plus
	// the inductive proof rule.
	ok, _, err := temporal.Invariant(peterson, temporal.MustParseFormula("!(c1 & c2)"))
	if err != nil {
		return err
	}
	fmt.Printf("\ninvariance check (reachability):   !(c1 & c2) invariant = %v\n", ok)
	ind, err := temporal.CheckInductive(peterson, temporal.MustParseFormula("!(c1 & c2)"))
	if err != nil {
		return err
	}
	fmt.Printf("invariance rule (implicit induction): inductive = %v\n", ind.Inductive)
	if !ind.Inductive {
		fmt.Printf("  (needs strengthening; broken by: %v — the usual situation\n", keys(ind.BrokenBy))
		fmt.Printf("   for a bare mutual-exclusion assertion over unreachable states)\n")
	}
	return nil
}

func keys(m map[string][2]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
