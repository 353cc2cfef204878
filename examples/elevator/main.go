// Command elevator verifies a three-floor elevator controller — the
// paper's "programs controlling industrial plants" kind of reactive
// system. The service guarantee is a response (recurrence) property per
// floor; a nearest-call policy starves the far floor while the classic
// SCAN policy satisfies the full specification, certified by the justice
// chain rule.
package main

import (
	"fmt"
	"log"

	temporal "repro"
	"repro/internal/ts"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	service := []temporal.Formula{
		temporal.MustParseFormula("G (call0 -> F (at0 & open))"),
		temporal.MustParseFormula("G (call1 -> F (at1 & open))"),
		temporal.MustParseFormula("G (call2 -> F (at2 & open))"),
	}
	door := temporal.MustParseFormula("G (open -> F !open)")

	c, err := temporal.Classify(service[0])
	if err != nil {
		return err
	}
	fmt.Printf("service guarantee %v — class %v\n\n", service[0], c.Lowest())

	for _, pol := range []ts.ElevatorPolicy{ts.Nearest, ts.Scan} {
		sys, err := ts.Elevator(pol)
		if err != nil {
			return err
		}
		fmt.Printf("policy %-8v (%d states):\n", pol, sys.NumStates())
		res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: sys, Formula: door})
		if err != nil {
			return err
		}
		fmt.Printf("  door always closes : %v\n", res.Holds)
		for i, f := range service {
			res, err := temporal.Check(temporal.CheckRequest{Kind: temporal.CheckVerify, System: sys, Formula: f})
			if err != nil {
				return err
			}
			fmt.Printf("  serve floor %d      : %v\n", i, res.Holds)
			if !res.Holds && i == 0 {
				pre, loop := res.Counterexample.Names(sys)
				fmt.Printf("    starvation: %v then repeat %v\n", pre, loop)
				fmt.Println("    (the cabin shuttles between floors 1 and 2 — each fresh")
				fmt.Println("     call up there is nearer than the waiting call at 0)")
			}
		}
		fmt.Println()
	}

	// The SCAN guarantee carries a machine-checked chain-rule proof.
	scan, err := ts.Elevator(ts.Scan)
	if err != nil {
		return err
	}
	trigger := temporal.MustParseFormula("call0")
	goal := temporal.MustParseFormula("at0 & open")
	cert, err := temporal.SynthesizeResponse(scan, trigger, goal)
	if err != nil {
		return err
	}
	if err := cert.Validate(scan, trigger, goal); err != nil {
		return err
	}
	maxRank := 0
	pending := 0
	for _, r := range cert.Rank {
		if r >= 0 {
			pending++
			if r > maxRank {
				maxRank = r
			}
		}
	}
	fmt.Printf("SCAN floor-0 service: justice chain-rule certificate validated\n")
	fmt.Printf("  (%d pending states ranked, maximal rank %d — the explicit\n", pending, maxRank)
	fmt.Printf("   well-founded induction the paper pairs with liveness proofs)\n")
	return nil
}
