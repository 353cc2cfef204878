// Command quickstart walks through the library's public API: parse the
// canonical formulas of the paper, classify each into the hierarchy
// through the temporal-logic and automata views, and confirm the
// topological correspondences of §3.
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
	fmt.Println("The safety–progress hierarchy (Manna & Pnueli, PODC 1990)")
	fmt.Println()

	// One canonical formula per class, in the paper's notation.
	specs := []struct {
		formula string
		reading string
	}{
		{"G !(c1 & c2)", "mutual exclusion (invariance)"},
		{"F terminal", "termination"},
		{"G p | F q", "conditional obligation"},
		{"G (req -> F ack)", "response / accessibility"},
		{"G (boot -> F G stable)", "eventual stabilization"},
		{"G F enabled -> G F taken", "strong fairness"},
	}
	fmt.Printf("%-28s %-14s %-14s %s\n", "formula", "syntactic", "semantic", "classes")
	for _, s := range specs {
		f, err := temporal.ParseFormula(s.formula)
		if err != nil {
			return fmt.Errorf("parse %q: %w", s.formula, err)
		}
		syn, _, err := temporal.SyntacticClass(f)
		if err != nil {
			return fmt.Errorf("syntactic class of %q: %w", s.formula, err)
		}
		sem, err := temporal.Classify(f)
		if err != nil {
			return fmt.Errorf("classify %q: %w", s.formula, err)
		}
		fmt.Printf("%-28s %-14v %-14v %v   (%s)\n",
			s.formula, syn, sem.Lowest(), sem.Classes(), s.reading)
	}

	// The linguistic view: the same classes built with A, E, R, P from
	// finitary properties (the §2 operator table).
	fmt.Println()
	fmt.Println("Linguistic view over Σ = {a, b}:")
	ab, err := temporal.Letters("ab")
	if err != nil {
		return err
	}
	phi, err := temporal.NewProperty("a^+b*", ab)
	if err != nil {
		return err
	}
	endB, err := temporal.NewProperty(".*b", ab)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		a    *temporal.Automaton
		lang string
	}{
		{"A(a+b*)", temporal.BuildA(phi), "a^ω + a⁺b^ω"},
		{"E(a+b*)", temporal.BuildE(phi), "a⁺b*Σ^ω"},
		{"R(Σ*b)", temporal.BuildR(endB), "(a*b)^ω"},
		{"P(Σ*b)", temporal.BuildP(endB), "Σ*b^ω"},
	}
	fmt.Printf("%-10s %-14s %-8s closed open Gδ Fσ dense\n", "operator", "language", "class")
	for _, r := range rows {
		c, err := temporal.ClassifyAutomaton(r.a)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-14s %-8v %-6v %-4v %-2v %-2v %v\n",
			r.name, r.lang, c.Lowest(),
			temporal.IsClosed(r.a), temporal.IsOpen(r.a),
			temporal.IsGdelta(r.a), temporal.IsFsigma(r.a), temporal.IsDense(r.a))
	}

	// Membership of concrete computations.
	fmt.Println()
	f := temporal.MustParseFormula("G (req -> F ack)")
	good := temporal.MustLasso("", "{req}{ack}")
	bad := temporal.MustLasso("{ack}", "{req}")
	for _, w := range []temporal.Word{good, bad} {
		ok, err := temporal.Holds(f, w)
		if err != nil {
			return err
		}
		fmt.Printf("%v ⊨ %v : %v\n", w, f, ok)
	}
	return nil
}
