package temporal_test

// The benchmark harness: one benchmark per experiment (each regenerates
// one of the paper's tables/figures; see DESIGN.md §3 and EXPERIMENTS.md)
// plus micro-benchmarks for the core operations — classification,
// compilation, evaluation, minex, equivalence, model checking — across
// parameter sweeps.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	temporal "repro"
	"repro/internal/alphabet"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/omega"
	"repro/internal/patterns"
	"repro/internal/ts"
	"repro/internal/word"
)

func benchReport(b *testing.B, run func() *experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if r := run(); !r.OK {
			b.Fatalf("experiment failed:\n%s", experiments.Render(r))
		}
	}
}

func BenchmarkE1InclusionDiagram(b *testing.B) { benchReport(b, experiments.E1InclusionDiagram) }
func BenchmarkE2OperatorTable(b *testing.B)    { benchReport(b, experiments.E2OperatorTable) }
func BenchmarkE3Duality(b *testing.B)          { benchReport(b, experiments.E3Duality) }
func BenchmarkE4MinexClosure(b *testing.B)     { benchReport(b, experiments.E4MinexClosure) }
func BenchmarkE5SafetyClosure(b *testing.B)    { benchReport(b, experiments.E5SafetyClosure) }
func BenchmarkE6ObligationRank(b *testing.B)   { benchReport(b, experiments.E6ObligationRank) }
func BenchmarkE7ReactivityRank(b *testing.B)   { benchReport(b, experiments.E7ReactivityRank) }
func BenchmarkE8SLDecomposition(b *testing.B)  { benchReport(b, experiments.E8SLDecomposition) }
func BenchmarkE9Topology(b *testing.B)         { benchReport(b, experiments.E9Topology) }
func BenchmarkE10TemporalLaws(b *testing.B)    { benchReport(b, experiments.E10TemporalLaws) }
func BenchmarkE11Responsiveness(b *testing.B)  { benchReport(b, experiments.E11Responsiveness) }
func BenchmarkE12RoundTrip(b *testing.B)       { benchReport(b, experiments.E12RoundTrip) }
func BenchmarkE13Decide(b *testing.B)          { benchReport(b, experiments.E13Decide) }
func BenchmarkE14ModelCheck(b *testing.B)      { benchReport(b, experiments.E14ModelCheck) }

// --- micro-benchmarks: classification -------------------------------------

var benchAB = alphabet.MustLetters("ab")

// BenchmarkClassifyAutomaton sweeps the automaton size for the §5.1
// decision procedures (E13's scaling axis).
func BenchmarkClassifyAutomaton(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		autos := make([]*temporal.Automaton, 8)
		for i := range autos {
			autos[i] = gen.RandomStreett(rng, benchAB, n, 2, 0.25, 0.4)
		}
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClassifyAutomaton(autos[i%len(autos)])
			}
		})
	}
}

// BenchmarkObligationRank sweeps the Obl_k witness family.
func BenchmarkObligationRank(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		a := experiments.OddCAutomaton(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := core.ClassifyAutomaton(a); c.ObligationRank != k {
					b.Fatalf("rank %d != %d", c.ObligationRank, k)
				}
			}
		})
	}
}

// BenchmarkReactivityRank sweeps the reactivity witness family.
func BenchmarkReactivityRank(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		a, err := experiments.ReactivityFamily(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := core.ClassifyAutomaton(a); c.ReactivityRank != n {
					b.Fatalf("rank %d != %d", c.ReactivityRank, n)
				}
			}
		})
	}
}

// BenchmarkClassifyBatch compares the execution strategies for a
// requirements list built from the §2 canonical examples (duplicated ×4,
// the shape of a real property-list specification with repeated
// requirements): sequential core calls per item, an engine Batch on a
// cold cache (structural dedup + shared-clause compilation), and a warm
// engine whose memo cache answers every repeat outright.
func BenchmarkClassifyBatch(b *testing.B) {
	specs := []string{
		"G !(c1 & c2)", "F done", "G p | F q",
		"G (req -> F ack)", "F G stable", "G F e -> G F t",
	}
	const copies = 4
	var formulas []ltl.Formula
	for i := 0; i < copies; i++ {
		for _, s := range specs {
			formulas = append(formulas, ltl.MustParse(s))
		}
	}
	reqs := make([]temporal.BatchRequest, len(formulas))
	for i, f := range formulas {
		reqs[i] = temporal.BatchRequest{Formula: f}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range formulas {
				if _, err := core.ClassifyFormula(f, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := temporal.NewEngine(temporal.WithParallelism(4))
			for _, r := range eng.Batch(context.Background(), reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := temporal.NewEngine(temporal.WithParallelism(4))
		eng.Batch(context.Background(), reqs) // warm the memo cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range eng.Batch(context.Background(), reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// --- micro-benchmarks: temporal logic --------------------------------------

// BenchmarkCompileFormula times formula → Streett automaton (Prop. 5.3).
func BenchmarkCompileFormula(b *testing.B) {
	formulas := map[string]string{
		"safety":     "G (p -> q)",
		"response":   "G (p -> F q)",
		"reactivity": "(G F p -> G F q) & (G F q -> G F p)",
	}
	for name, fstr := range formulas {
		f := ltl.MustParse(fstr)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompileFormula(f, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileUniverse replays the first 500 formulas of the
// classify-cold universe on a fresh engine per iteration: each is
// compiled, classified and probed, as temporald's /classify does, so
// no memo entry survives from one iteration to the next.
func BenchmarkCompileUniverse(b *testing.B) {
	var formulas []ltl.Formula
	for _, text := range gen.FormulaUniverse(500) {
		formulas = append(formulas, ltl.MustParse(text))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := temporal.NewEngine()
		for _, f := range formulas {
			a, err := eng.CompileFormula(ctx, f, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.ClassifyAutomaton(ctx, a); err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.PlanAutomaton(ctx, a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvalLasso times formula evaluation over lasso words of
// growing period.
func BenchmarkEvalLasso(b *testing.B) {
	f := ltl.MustParse("G (a -> F b) & G F a")
	for _, loop := range []int{4, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(loop)))
		w := gen.RandomLasso(rng, benchAB, loop/2, loop)
		b.Run(fmt.Sprintf("period=%d", loop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Holds(f, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndSatisfies times the finitary esat relation.
func BenchmarkEndSatisfies(b *testing.B) {
	p := ltl.MustParse("b & Z H a")
	for _, n := range []int{16, 256, 4096} {
		w := word.FiniteFromString("a").Repeat(n - 1).Concat(word.FiniteFromString("b"))
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.EndSatisfies(p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks: linguistic view -------------------------------------

// BenchmarkMinex times the minex construction on random DFA pairs.
func BenchmarkMinex(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		p1 := lang.FromDFA(gen.RandomDFA(rng, benchAB, n, 0.4))
		p2 := lang.FromDFA(gen.RandomDFA(rng, benchAB, n, 0.4))
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p1.Minex(p2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEquivalent times exact Streett language equivalence.
func BenchmarkEquivalent(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		p1 := lang.FromDFA(gen.RandomDFA(rng, benchAB, n, 0.4))
		p2 := lang.FromDFA(gen.RandomDFA(rng, benchAB, n, 0.4))
		lhs, err := lang.R(p1).Intersect(lang.R(p2))
		if err != nil {
			b.Fatal(err)
		}
		mx, err := p1.Minex(p2)
		if err != nil {
			b.Fatal(err)
		}
		rhs := lang.R(mx)
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eq, _, err := lhs.Equivalent(rhs)
				if err != nil || !eq {
					b.Fatalf("eq=%v err=%v", eq, err)
				}
			}
		})
	}
}

// BenchmarkSafetyClosure times the topological closure computation.
func BenchmarkSafetyClosure(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := gen.RandomStreett(rng, benchAB, n, 1, 0.3, 0.4)
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.SafetyClosure()
			}
		})
	}
}

// --- micro-benchmarks: verification ----------------------------------------

// BenchmarkVerifyPeterson times the full model-checking pipeline on the
// three specification properties.
func BenchmarkVerifyPeterson(b *testing.B) {
	sys, err := ts.Peterson()
	if err != nil {
		b.Fatal(err)
	}
	for _, fstr := range []string{"G !(c1 & c2)", "G (w1 -> F c1)"} {
		f := ltl.MustParse(fstr)
		b.Run(fstr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.Verify(sys, f)
				if err != nil || !res.Holds {
					b.Fatalf("holds=%v err=%v", res.Holds, err)
				}
			}
		})
	}
}

// BenchmarkVerifySemaphore times verification with a counterexample
// (weak) and without (strong).
func BenchmarkVerifySemaphore(b *testing.B) {
	f := ltl.MustParse("G (w1 -> F c1)")
	for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
		sys, err := ts.Semaphore(fair)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fair.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mc.Verify(sys, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPastToDFA times the past-formula compilation sweep: each
// iteration builds the formula's minimal DFA with compile.PastToDFA,
// which memoizes nothing.
func BenchmarkPastToDFA(b *testing.B) {
	formulas := map[string]string{
		"small": "b & Z H a",
		"since": "(a S b) & O (a & Y b)",
		"deep":  "Y Y Y (a S (b S (a & O b)))",
	}
	for name, fstr := range formulas {
		f := ltl.MustParse(fstr)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compile.PastToDFA(f, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benchmarks ----------------------------------------------------
// DESIGN.md calls out four design choices; each ablation measures the
// alternative.

// BenchmarkAblationClassifyVsCanonicalize compares the two independent
// class deciders: the Landweber/Wagner cycle analysis (used by Classify)
// against the constructive canonicalize-and-compare route of Prop. 5.1.
func BenchmarkAblationClassifyVsCanonicalize(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	autos := make([]*temporal.Automaton, 8)
	for i := range autos {
		autos[i] = gen.RandomStreett(rng, benchAB, 16, 1, 0.3, 0.4)
	}
	b.Run("cycle-analysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyAutomaton(autos[i%len(autos)])
		}
	})
	b.Run("canonicalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := autos[i%len(autos)]
			_, _ = a.ToSafetyAutomaton()
			_, _ = a.ToGuaranteeAutomaton()
			_, _ = a.ToRecurrenceAutomaton()
			_, _ = a.ToPersistenceAutomaton()
		}
	})
}

// BenchmarkAblationMinimization measures how much DFA minimization of the
// finitary property buys the downstream classification: the same random
// language, classified from the raw vs the minimized automaton.
func BenchmarkAblationMinimization(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	raw := gen.RandomDFA(rng, benchAB, 48, 0.4)
	minimized := raw.Minimize()
	toStreett := func(d *dfa.DFA) *temporal.Automaton {
		n := d.NumStates()
		k := d.Alphabet().Size()
		trans := make([][]int, n)
		pair := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
		for q := 0; q < n; q++ {
			row := make([]int, k)
			for s := 0; s < k; s++ {
				row[s] = d.StepIndex(q, s)
			}
			trans[q] = row
			pair.R[q] = d.Accepting(q)
		}
		return omega.MustNew(d.Alphabet(), trans, d.Start(), []omega.Pair{pair})
	}
	rawAut, minAut := toStreett(raw), toStreett(minimized)
	b.Logf("raw %d states, minimized %d states", raw.NumStates(), minimized.NumStates())
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyAutomaton(rawAut)
		}
	})
	b.Run("minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyAutomaton(minAut)
		}
	})
}

// BenchmarkAblationExactVsCorpus compares exact Streett equivalence with
// the sampling oracle (exhaustive lasso corpus) it replaced.
func BenchmarkAblationExactVsCorpus(b *testing.B) {
	phi1 := lang.MustRegex("(ab)^+", benchAB)
	phi2 := lang.MustRegex("a.*", benchAB)
	lhs, err := lang.R(phi1).Intersect(lang.R(phi2))
	if err != nil {
		b.Fatal(err)
	}
	mx, err := phi1.Minex(phi2)
	if err != nil {
		b.Fatal(err)
	}
	rhs := lang.R(mx)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eq, _, err := lhs.Equivalent(rhs)
			if err != nil || !eq {
				b.Fatal("exact equivalence failed")
			}
		}
	})
	corpus := gen.Lassos(benchAB, 4, 4)
	b.Run("corpus-352-lassos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range corpus {
				x, err1 := lhs.Accepts(w)
				y, err2 := rhs.Accepts(w)
				if err1 != nil || err2 != nil || x != y {
					b.Fatal("corpus disagreement")
				}
			}
		}
	})
}

// BenchmarkAblationPairMerge measures the cost of classifying a k-pair
// recurrence conjunction directly versus after the cyclic-counter merge
// into a single Büchi pair.
func BenchmarkAblationPairMerge(b *testing.B) {
	phis := []*lang.Property{
		lang.MustRegex(".*a", benchAB),
		lang.MustRegex(".*b", benchAB),
		lang.MustRegex("(ab)^+", benchAB),
	}
	autos := make([]*temporal.Automaton, len(phis))
	for i, p := range phis {
		autos[i] = lang.R(p)
	}
	multi, err := omega.IntersectAll(autos...)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := multi.ToRecurrenceAutomaton()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("multi: %d states × %d pairs; merged: %d states × 1 pair",
		multi.NumStates(), multi.NumPairs(), merged.NumStates())
	b.Run("multi-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyAutomaton(multi)
		}
	})
	b.Run("merged-single-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyAutomaton(merged)
		}
	})
}

// BenchmarkVerifyCaseStudies times the larger verification targets.
func BenchmarkVerifyCaseStudies(b *testing.B) {
	philosophers, err := ts.DiningPhilosophers(3, false, ts.Strong)
	if err != nil {
		b.Fatal(err)
	}
	elevator, err := ts.Elevator(ts.Scan)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		sys  *ts.System
		f    string
	}{
		{"philosophers/access", philosophers, "G (h0 -> F e0)"},
		{"philosophers/exclusion", philosophers, "G !(e0 & e1)"},
		{"elevator/serve0", elevator, "G (call0 -> F (at0 & open))"},
	}
	for _, tc := range cases {
		f := ltl.MustParse(tc.f)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.Verify(tc.sys, f)
				if err != nil || !res.Holds {
					b.Fatalf("holds=%v err=%v", res.Holds, err)
				}
			}
		})
	}
}

// BenchmarkSynthesizeCertificate times justice chain-rule synthesis.
func BenchmarkSynthesizeCertificate(b *testing.B) {
	peterson, err := ts.Peterson()
	if err != nil {
		b.Fatal(err)
	}
	scan, err := ts.Elevator(ts.Scan)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name          string
		sys           *ts.System
		trigger, goal string
	}{
		{"peterson", peterson, "w1", "c1"},
		{"elevator", scan, "call0", "at0 & open"},
	}
	for _, tc := range cases {
		trigger, goal := ltl.MustParse(tc.trigger), ltl.MustParse(tc.goal)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mc.SynthesizeResponse(tc.sys, trigger, goal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduce times bisimulation reduction on random automata.
func BenchmarkReduce(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := gen.RandomStreett(rng, benchAB, n, 1, 0.3, 0.4)
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Reduce()
			}
		})
	}
}

// BenchmarkPatternCatalog times building and classifying the whole
// specification-pattern checklist.
func BenchmarkPatternCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range patterns.Catalog() {
			f, err := patterns.Build(e.Spec)
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.ClassifyFormula(f, nil)
			if err != nil {
				b.Fatal(err)
			}
			if c.Lowest() != e.Class {
				b.Fatalf("%s: %v != %v", e.Name, c.Lowest(), e.Class)
			}
		}
	}
}
