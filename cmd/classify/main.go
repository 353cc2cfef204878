// Command classify places a temporal formula in the safety–progress
// hierarchy, reporting all four of the paper's views.
//
// Usage:
//
//	classify [-props p,q,r] "G (p -> F q)"
//	classify -op R -regex '.*b' -alphabet ab
//
// The first form classifies a temporal formula (grammar: X U W F G future
// operators, Y Z S B O H past operators, ! & | -> <-> connectives). The
// second form classifies O(Φ) for one of the linguistic operators
// O ∈ {A, E, R, P} applied to a finitary regular language. A third form,
//
//	classify -automaton m.aut
//
// classifies a deterministic Streett automaton given in the textual
// format of internal/omega.ParseText (alphabet/states/start/trans/pair
// directives).
//
// Observability: -stats prints a span tree, per-stage timing summary and
// counter values to stderr after the run; -trace FILE writes every span
// and metric as JSON lines for offline analysis.
//
// Batch mode classifies many formulas at once, up to -jobs at a time:
//
//	classify -batch spec.txt -jobs 4
//
// with one formula per line ('#' comments); structurally identical
// formulas and shared normal-form clauses are deduplicated by the
// engine's memo cache.
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
	"repro/internal/omega"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	// Malformed inputs must produce a one-line diagnostic and a non-zero
	// exit, never a stack trace.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	props := fs.String("props", "", "comma-separated extra propositions")
	op := fs.String("op", "", "linguistic operator: A, E, R or P (with -regex)")
	regexExpr := fs.String("regex", "", "finitary regular expression for -op")
	alphaStr := fs.String("alphabet", "ab", "letters of the alphabet for -op")
	autFile := fs.String("automaton", "", "file with a Streett automaton in the textual format")
	batchFile := fs.String("batch", "", "file with one formula per line ('#' comments): classify all at once")
	common := cli.Register(fs, cli.FlagAll)
	if err := fs.Parse(args); err != nil {
		return err
	}

	finish, err := common.SetupObs(stderr)
	if err != nil {
		return err
	}
	ctx, cancel := common.Context(context.Background())
	defer cancel()
	err = dispatch(ctx, fs, *autFile, *batchFile, *op, *regexExpr, *alphaStr, *props, common, stdout, stderr)
	if ferr := finish(); err == nil {
		err = ferr
	}
	return err
}

func dispatch(ctx context.Context, fs *flag.FlagSet, autFile, batchFile, op, regexExpr, alphaStr, props string, common *cli.Common, stdout, stderr io.Writer) (err error) {
	// One engine per invocation: a CLI run is one-shot, so the memo cache
	// only serves within-run sharing (batch dedup, repeated subterms) —
	// but with -store, verdicts additionally warm-start from and persist
	// to the verdict log, so repeated invocations share work on disk.
	eng := temporal.NewEngine(common.EngineOptions()...)
	eng.RegisterStatsGauges(nil)
	defer func() {
		if ferr := common.FinishEngine(eng, stderr); err == nil {
			err = ferr
		}
	}()
	if batchFile != "" {
		return classifyBatch(ctx, batchFile, props, eng, stdout)
	}
	if autFile != "" {
		return classifyAutomatonFile(ctx, autFile, eng, stdout)
	}
	if op != "" {
		return classifyOperator(ctx, op, regexExpr, alphaStr, eng, stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one formula argument")
	}
	return classifyFormula(ctx, fs.Arg(0), props, eng, stdout)
}

// readFormulaLines reads one formula per line, skipping blanks and '#'
// comments.
func readFormulaLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var inputs []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		inputs = append(inputs, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return inputs, nil
}

func classifyBatch(ctx context.Context, path, extraProps string, eng *temporal.Engine, w io.Writer) error {
	inputs, err := readFormulaLines(path)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no formulas in %s (empty input file)", path)
	}
	var props []string
	if extraProps != "" {
		props = strings.Split(extraProps, ",")
	}
	reqs := make([]temporal.BatchRequest, len(inputs))
	for i, in := range inputs {
		f, err := temporal.ParseFormula(in)
		if err != nil {
			return fmt.Errorf("parse %q: %w", in, err)
		}
		reqs[i] = temporal.BatchRequest{Formula: f, Props: props}
	}
	results := eng.Batch(ctx, reqs)
	fmt.Fprintf(w, "%-36s %-12s %-7s %s\n", "formula", "class", "states", "all classes")
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("classify %q: %w", inputs[i], r.Err)
		}
		fmt.Fprintf(w, "%-36s %-12v %-7d %v\n",
			inputs[i], r.Classification.Lowest(), r.Automaton.NumStates(), r.Classification.Classes())
	}
	st := eng.CacheStats()
	fmt.Fprintf(w, "\n%d formulas, %d unique automata; cache: %d hits, %d misses\n",
		len(inputs), countDistinct(results), st.Hits, st.Misses)
	return nil
}

func countDistinct(results []temporal.BatchResult) int {
	seen := map[*temporal.Automaton]bool{}
	for _, r := range results {
		if r.Automaton != nil {
			seen[r.Automaton] = true
		}
	}
	return len(seen)
}

func classifyFormula(ctx context.Context, input, extraProps string, eng *temporal.Engine, w io.Writer) error {
	f, err := temporal.ParseFormula(input)
	if err != nil {
		return err
	}
	var props []string
	if extraProps != "" {
		props = strings.Split(extraProps, ",")
	}

	fmt.Fprintf(w, "formula           : %v\n", f)
	syn, nf, err := temporal.SyntacticClass(f)
	if err != nil {
		return fmt.Errorf("normalize: %w", err)
	}
	fmt.Fprintf(w, "normal form       : %v\n", nf)
	fmt.Fprintf(w, "syntactic class   : %v\n", syn)

	aut, err := eng.CompileFormula(ctx, f, propsOrNil(props, f))
	if err != nil {
		return err
	}
	c, err := eng.ClassifyAutomaton(ctx, aut)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "automaton         : %d states, %d Streett pairs\n", aut.NumStates(), aut.NumPairs())
	fmt.Fprintf(w, "semantic class    : %v\n", c.Lowest())
	fmt.Fprintf(w, "all classes       : %v\n", c.Classes())
	if c.Obligation {
		fmt.Fprintf(w, "obligation rank   : %d\n", c.ObligationRank)
	}
	fmt.Fprintf(w, "reactivity rank   : %d\n", c.ReactivityRank)
	printTopology(w, c, aut)
	fmt.Fprintf(w, "safety-liveness   : liveness=%v\n", temporal.IsLiveness(aut))
	return nil
}

// printTopology prints the topological view (§3) of a classified
// property: closed, open, Gδ and Fσ are safety, guarantee, recurrence
// and persistence, as internal/topology defines them.
func printTopology(w io.Writer, c temporal.Classification, aut *temporal.Automaton) {
	fmt.Fprintf(w, "topology          : closed=%v open=%v Gδ=%v Fσ=%v dense=%v\n",
		c.Safety, c.Guarantee, c.Recurrence, c.Persistence, temporal.IsDense(aut))
}

func propsOrNil(props []string, f temporal.Formula) []string {
	if len(props) == 0 {
		return nil
	}
	return props
}

func classifyAutomatonFile(ctx context.Context, path string, eng *temporal.Engine, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.TrimSpace(string(data)) == "" {
		return fmt.Errorf("automaton file %s is empty", path)
	}
	aut, err := omega.ParseText(string(data))
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	c, err := eng.ClassifyAutomaton(ctx, aut)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "automaton         : %d states, %d Streett pairs over %v\n",
		aut.NumStates(), aut.NumPairs(), aut.Alphabet())
	fmt.Fprintf(w, "semantic class    : %v\n", c.Lowest())
	fmt.Fprintf(w, "all classes       : %v\n", c.Classes())
	if c.Obligation {
		fmt.Fprintf(w, "obligation rank   : %d\n", c.ObligationRank)
	}
	fmt.Fprintf(w, "reactivity rank   : %d\n", c.ReactivityRank)
	printTopology(w, c, aut)
	fmt.Fprintf(w, "syntactic shape   : safety=%v guarantee=%v recurrence=%v persistence=%v\n",
		aut.IsSafetyAutomaton(), aut.IsGuaranteeAutomaton(),
		aut.IsRecurrenceAutomaton(), aut.IsPersistenceAutomaton())
	return nil
}

func classifyOperator(ctx context.Context, op, regexExpr, alphaStr string, eng *temporal.Engine, w io.Writer) error {
	if regexExpr == "" {
		return fmt.Errorf("-op needs -regex")
	}
	alpha, err := temporal.Letters(alphaStr)
	if err != nil {
		return err
	}
	phi, err := temporal.NewProperty(regexExpr, alpha)
	if err != nil {
		return err
	}
	var aut *temporal.Automaton
	switch strings.ToUpper(op) {
	case "A":
		aut = temporal.BuildA(phi)
	case "E":
		aut = temporal.BuildE(phi)
	case "R":
		aut = temporal.BuildR(phi)
	case "P":
		aut = temporal.BuildP(phi)
	default:
		return fmt.Errorf("unknown operator %q (want A, E, R or P)", op)
	}
	c, err := eng.ClassifyAutomaton(ctx, aut)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "property          : %s(%s) over %v\n", strings.ToUpper(op), regexExpr, alpha)
	fmt.Fprintf(w, "automaton         : %d states, %d Streett pairs\n", aut.NumStates(), aut.NumPairs())
	fmt.Fprintf(w, "semantic class    : %v\n", c.Lowest())
	fmt.Fprintf(w, "all classes       : %v\n", c.Classes())
	printTopology(w, c, aut)
	return nil
}
