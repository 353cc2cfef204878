// Command speccheck implements the paper's methodological motivation
// (§1): property-list specifications risk underspecification, and the
// hierarchy gives the specifier a checklist. Given a list of requirement
// formulas, speccheck classifies each one, summarizes the coverage of
// the hierarchy, and warns when a specification contains no liveness
// (non-safety) requirement — the mutual-exclusion trap.
//
// Usage:
//
//	speccheck "G !(c1 & c2)" "G (w1 -> F c1)"
//	speccheck -f spec.txt        # one formula per line, # comments
//	speccheck -f spec.txt -jobs 4   # classify up to 4 requirements at once
//
// The requirement list is classified as one engine batch: structurally
// identical requirements are deduplicated and distinct ones classified
// concurrently (bounded by -jobs; 0 means the number of CPUs).
//
// With -explain, speccheck also reports the query-planner view of each
// requirement: the plan tier its compiled automaton lands in, the
// decision procedure that tier runs, its asymptotic cost, and the
// planner's reason for the tier. The footer prints the full tier table
// (class -> procedure -> complexity) for reference.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	temporal "repro"
	"repro/internal/cli"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "speccheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (code int, err error) {
	// Malformed inputs must produce a one-line diagnostic and a non-zero
	// exit, never a stack trace.
	defer func() {
		if r := recover(); r != nil {
			code, err = 0, fmt.Errorf("internal error: %v", r)
		}
	}()
	fs := flag.NewFlagSet("speccheck", flag.ContinueOnError)
	file := fs.String("f", "", "file with one formula per line ('#' comments)")
	explain := fs.Bool("explain", false, "report the planner tier, procedure and rationale per requirement")
	common := cli.Register(fs, cli.FlagAll)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	finish, err := common.SetupObs(os.Stderr)
	if err != nil {
		return 0, err
	}
	ctx, cancel := common.Context(context.Background())
	defer cancel()
	code, err = check(ctx, fs, *file, *explain, common, os.Stderr)
	if ferr := finish(); err == nil {
		err = ferr
	}
	return code, err
}

func check(ctx context.Context, fs *flag.FlagSet, file string, explain bool, common *cli.Common, stderr io.Writer) (code int, err error) {
	var inputs []string
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			inputs = append(inputs, line)
		}
		if err := sc.Err(); err != nil {
			return 0, err
		}
		if len(inputs) == 0 && fs.NArg() == 0 {
			return 0, fmt.Errorf("no formulas given (input file %s is empty)", file)
		}
	}
	inputs = append(inputs, fs.Args()...)
	if len(inputs) == 0 {
		return 0, fmt.Errorf("no formulas given")
	}

	reqs := make([]temporal.BatchRequest, len(inputs))
	for i, in := range inputs {
		f, err := temporal.ParseFormula(in)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", in, err)
		}
		reqs[i] = temporal.BatchRequest{Formula: f}
	}
	eng := temporal.NewEngine(common.EngineOptions()...)
	eng.RegisterStatsGauges(nil)
	defer func() {
		if ferr := common.FinishEngine(eng, stderr); err == nil {
			err = ferr
		}
	}()
	results := eng.Batch(ctx, reqs)

	counts := map[temporal.Class]int{}
	hasLiveness := false
	fmt.Printf("%-36s %-12s %-9s %s\n", "requirement", "class", "liveness", "reading")
	for i, r := range results {
		if r.Err != nil {
			return 0, fmt.Errorf("classify %q: %w", inputs[i], r.Err)
		}
		c := r.Classification
		live := temporal.IsLiveness(r.Automaton)
		hasLiveness = hasLiveness || live
		counts[c.Lowest()]++
		fmt.Printf("%-36s %-12v %-9v %s\n", inputs[i], c.Lowest(), live, reading(c.Lowest()))
	}

	fmt.Println()
	fmt.Println("hierarchy coverage:")
	for _, cl := range []temporal.Class{
		temporal.Safety, temporal.Guarantee, temporal.Obligation,
		temporal.Recurrence, temporal.Persistence, temporal.Reactivity,
	} {
		marker := " "
		if counts[cl] > 0 {
			marker = "x"
		}
		fmt.Printf("  [%s] %-12v %d requirement(s)\n", marker, cl, counts[cl])
	}

	if explain {
		fmt.Println()
		if err := explainPlans(ctx, eng, inputs, results); err != nil {
			return 0, err
		}
	}

	fmt.Println()
	if !hasLiveness {
		fmt.Println("WARNING: every requirement is a safety property. A system that")
		fmt.Println("does nothing satisfies this specification (the paper's mutual")
		fmt.Println("exclusion trap). Consider adding a guarantee / response /")
		fmt.Println("reactivity requirement for each obligation the system owes its")
		fmt.Println("environment.")
		return 2, nil
	}
	fmt.Println("specification contains liveness requirements — the do-nothing")
	fmt.Println("implementation is excluded.")
	return 0, nil
}

// explainPlans prints the query-planner view: for each requirement,
// the tier its compiled automaton lands in (from the semantic probe,
// which can beat the syntactic class — e.g. a syntactically reactivity
// formula whose automaton is semantically safe), the procedure that
// tier runs, and the planner's rationale.
func explainPlans(ctx context.Context, eng *temporal.Engine, inputs []string, results []temporal.BatchResult) error {
	fmt.Println("query plan (-explain):")
	fmt.Printf("  %-36s %-12s %s\n", "requirement", "tier", "procedure — why cheaper")
	for i, r := range results {
		_, dec, err := eng.PlanAutomaton(ctx, r.Automaton)
		if err != nil {
			return fmt.Errorf("plan %q: %w", inputs[i], err)
		}
		fmt.Printf("  %-36s %-12s %s\n", inputs[i], dec.Tier, dec.Tier.Procedure())
		fmt.Printf("  %-36s %-12s %s\n", "", "", "cost "+dec.Tier.CostNote()+"; "+dec.Reason)
	}
	fmt.Println()
	fmt.Println("tier table (class -> procedure -> complexity):")
	for _, t := range []temporal.PlanTier{temporal.TierSafety, temporal.TierGuarantee, temporal.TierStreett} {
		fmt.Printf("  %-12s %-62s %s\n", t, t.Procedure(), t.CostNote())
	}
	return nil
}

func reading(c temporal.Class) string {
	switch c {
	case temporal.Safety:
		return "something bad never happens"
	case temporal.Guarantee:
		return "something good happens at least once"
	case temporal.Obligation:
		return "conditional one-shot promise"
	case temporal.Recurrence:
		return "something good happens infinitely often"
	case temporal.Persistence:
		return "eventually the system stabilizes"
	case temporal.Reactivity:
		return "infinitely many stimuli get infinitely many responses"
	default:
		return ""
	}
}
