// Package gen provides deterministic workload generators used by the test
// suite and the benchmark harness: exhaustive lasso-word corpora, random
// DFAs, random Streett automata, the paper's parameterized witness
// families, and the fixed formula universe and protocol systems the
// benchmark workloads replay.
package gen

import (
	"math/rand"

	"repro/internal/alphabet"
	"repro/internal/dfa"
	"repro/internal/ltl"
	"repro/internal/omega"
	"repro/internal/ts"
	"repro/internal/word"
)

// Lassos enumerates every lasso word u·v^ω with |u| ≤ maxPrefix and
// 1 ≤ |v| ≤ maxLoop over the alphabet, deduplicated by canonical form.
// This corpus is exhaustive for its size bounds: two ω-regular properties
// whose automata have ≤ n states in total agree everywhere iff they agree
// on all lassos with |u|,|v| bounded by small multiples of n; tests pick
// generous bounds.
func Lassos(alpha *alphabet.Alphabet, maxPrefix, maxLoop int) []word.Lasso {
	var prefixes []word.Finite
	prefixes = append(prefixes, word.Finite{})
	frontier := []word.Finite{{}}
	for l := 1; l <= maxPrefix; l++ {
		var next []word.Finite
		for _, w := range frontier {
			for _, s := range alpha.Symbols() {
				nw := append(append(word.Finite{}, w...), s)
				prefixes = append(prefixes, nw)
				next = append(next, nw)
			}
		}
		frontier = next
	}
	var loops []word.Finite
	frontier = []word.Finite{{}}
	for l := 1; l <= maxLoop; l++ {
		var next []word.Finite
		for _, w := range frontier {
			for _, s := range alpha.Symbols() {
				nw := append(append(word.Finite{}, w...), s)
				loops = append(loops, nw)
				next = append(next, nw)
			}
		}
		frontier = next
	}
	seen := map[string]bool{}
	var out []word.Lasso
	for _, u := range prefixes {
		for _, v := range loops {
			w := word.MustLasso(u, v).Canonical()
			key := w.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// RandomDFA returns a random complete DFA with n states over the alphabet,
// with each state accepting with probability acceptProb. State 0 is the
// start state. Deterministic in the rng.
func RandomDFA(rng *rand.Rand, alpha *alphabet.Alphabet, n int, acceptProb float64) *dfa.DFA {
	k := alpha.Size()
	trans := make([][]int, n)
	accept := make([]bool, n)
	for q := 0; q < n; q++ {
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = rng.Intn(n)
		}
		trans[q] = row
		accept[q] = rng.Float64() < acceptProb
	}
	return dfa.MustNew(alpha, trans, 0, accept)
}

// RandomStreett returns a random complete deterministic Streett automaton
// with n states and k acceptance pairs. Each state enters each R (resp. P)
// set with probability rProb (resp. pProb).
func RandomStreett(rng *rand.Rand, alpha *alphabet.Alphabet, n, pairs int, rProb, pProb float64) *omega.Automaton {
	syms := alpha.Size()
	trans := make([][]int, n)
	for q := 0; q < n; q++ {
		row := make([]int, syms)
		for s := 0; s < syms; s++ {
			row[s] = rng.Intn(n)
		}
		trans[q] = row
	}
	ps := make([]omega.Pair, pairs)
	for i := range ps {
		ps[i] = omega.Pair{R: make([]bool, n), P: make([]bool, n)}
		for q := 0; q < n; q++ {
			ps[i].R[q] = rng.Float64() < rProb
			ps[i].P[q] = rng.Float64() < pProb
		}
	}
	return omega.MustNew(alpha, trans, 0, ps)
}

// ModCounter returns a deterministic Streett automaton over alpha that
// counts occurrences of the first symbol modulo m (the other symbols
// leave the count unchanged) with a single acceptance pair: state c is in
// R iff rOf(c) and in P iff pOf(c). Products of counters with coprime
// moduli multiply state counts (CRT), which makes the family the
// building block of the product-heavy benchmark workloads: eager
// constructions pay m₁·m₂ states where the lazy explorer often needs a
// few dozen.
func ModCounter(alpha *alphabet.Alphabet, m int, rOf, pOf func(int) bool) *omega.Automaton {
	k := alpha.Size()
	trans := make([][]int, m)
	p := omega.Pair{R: make([]bool, m), P: make([]bool, m)}
	for c := 0; c < m; c++ {
		row := make([]int, k)
		row[0] = (c + 1) % m
		for s := 1; s < k; s++ {
			row[s] = c
		}
		trans[c] = row
		if rOf != nil {
			p.R[c] = rOf(c)
		}
		if pOf != nil {
			p.P[c] = pOf(c)
		}
	}
	return omega.MustNew(alpha, trans, 0, []omega.Pair{p})
}

// ShallowCounterexample returns a pair (a, b) over coprime moduli m1, m2
// with L(a) ⊉ L(b) and a counterexample reachable within a handful of
// product states: b accepts words where the count mod m2 hits 0
// infinitely often (true of every word), while a requires the count mod
// m1 to hit 0 infinitely often but rejects runs that stall — so a word
// repeating a non-first symbol forever is a shallow witness. The full
// product has m1·m2 reachable states; the witness needs only the
// diagonal prefix.
func ShallowCounterexample(alpha *alphabet.Alphabet, m1, m2 int) (a, b *omega.Automaton) {
	// a: the count mod m1 must hit 0 infinitely often. A run that stops
	// incrementing (loops on a non-first symbol away from 0) violates it.
	a = ModCounter(alpha, m1, func(c int) bool { return c == 0 }, nil)
	// b: trivially satisfied pair (every state in P) — accepts Σ^ω.
	b = ModCounter(alpha, m2, nil, func(int) bool { return true })
	return a, b
}

// NestedCounters returns a pair (a, b) over coprime moduli with
// L(a) ⊇ L(b): b counts mod m1·m2 and accepts iff the count hits 0 mod
// m1·m2 infinitely often, which implies a's weaker demand that it hits
// 0 mod m1 infinitely often. Deciding the containment requires the whole
// reachable product (m1·m2 states, the count mod m1 being determined by
// the count mod m1·m2) — the family where lazy exploration has no early
// exit and must match the eager cost.
func NestedCounters(alpha *alphabet.Alphabet, m1, m2 int) (a, b *omega.Automaton) {
	a = ModCounter(alpha, m1, func(c int) bool { return c == 0 }, nil)
	b = ModCounter(alpha, m1*m2, func(c int) bool { return c == 0 }, nil)
	return a, b
}

// EmptyIntersectionFamily returns counters with pairwise-incompatible
// persistence demands over one modulus: factor i accepts iff the count
// is eventually always ≡ i+1 (mod m). Any two factors conflict, so the
// intersection is empty and both eager and lazy paths must exhaust the
// diagonal product to prove it.
func EmptyIntersectionFamily(alpha *alphabet.Alphabet, m, factors int) []*omega.Automaton {
	out := make([]*omega.Automaton, factors)
	for i := range out {
		target := (i + 1) % m
		out[i] = ModCounter(alpha, m, nil, func(c int) bool { return c == target })
	}
	return out
}

// EarlyWitnessIntersection returns counters over coprime moduli whose
// intersection is non-empty with a witness at the very start of the
// product: every factor accepts when the count is 0 infinitely often,
// and the word that never increments realizes it in the initial state.
func EarlyWitnessIntersection(alpha *alphabet.Alphabet, moduli ...int) []*omega.Automaton {
	out := make([]*omega.Automaton, len(moduli))
	for i, m := range moduli {
		out[i] = ModCounter(alpha, m, nil, func(c int) bool { return c == 0 })
	}
	return out
}

// RandomLasso returns a random lasso word with prefix length ≤ maxPrefix
// and loop length in [1, maxLoop].
func RandomLasso(rng *rand.Rand, alpha *alphabet.Alphabet, maxPrefix, maxLoop int) word.Lasso {
	pl := rng.Intn(maxPrefix + 1)
	ll := 1 + rng.Intn(maxLoop)
	u := make(word.Finite, pl)
	for i := range u {
		u[i] = alpha.Symbol(rng.Intn(alpha.Size()))
	}
	v := make(word.Finite, ll)
	for i := range v {
		v[i] = alpha.Symbol(rng.Intn(alpha.Size()))
	}
	return word.MustLasso(u, v)
}

// FormulaOpts controls RandomFormula.
type FormulaOpts struct {
	Props       []string // proposition names to draw from
	MaxDepth    int      // maximum tree depth
	AllowFuture bool
	AllowPast   bool
}

// RandomFormula generates a random temporal formula. Deterministic in the
// rng.
func RandomFormula(rng *rand.Rand, opts FormulaOpts) ltl.Formula {
	if opts.MaxDepth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return ltl.True{}
		case 1:
			return ltl.False{}
		default:
			return ltl.Prop{Name: opts.Props[rng.Intn(len(opts.Props))]}
		}
	}
	sub := func() ltl.Formula {
		o := opts
		o.MaxDepth--
		return RandomFormula(rng, o)
	}
	var choices []func() ltl.Formula
	choices = append(choices,
		func() ltl.Formula { return ltl.Not{F: sub()} },
		func() ltl.Formula { return ltl.And{L: sub(), R: sub()} },
		func() ltl.Formula { return ltl.Or{L: sub(), R: sub()} },
		func() ltl.Formula { return ltl.Implies{L: sub(), R: sub()} },
		func() ltl.Formula { return ltl.Iff{L: sub(), R: sub()} },
	)
	if opts.AllowFuture {
		choices = append(choices,
			func() ltl.Formula { return ltl.Next{F: sub()} },
			func() ltl.Formula { return ltl.Until{L: sub(), R: sub()} },
			func() ltl.Formula { return ltl.Unless{L: sub(), R: sub()} },
			func() ltl.Formula { return ltl.Eventually{F: sub()} },
			func() ltl.Formula { return ltl.Always{F: sub()} },
		)
	}
	if opts.AllowPast {
		choices = append(choices,
			func() ltl.Formula { return ltl.Prev{F: sub()} },
			func() ltl.Formula { return ltl.WeakPrev{F: sub()} },
			func() ltl.Formula { return ltl.Since{L: sub(), R: sub()} },
			func() ltl.Formula { return ltl.Back{L: sub(), R: sub()} },
			func() ltl.Formula { return ltl.Once{F: sub()} },
			func() ltl.Formula { return ltl.Historically{F: sub()} },
		)
	}
	return choices[rng.Intn(len(choices))]()
}

// RandomNormalizable generates a random formula inside the normalizable
// fragment of package core: positive boolean combinations of the
// canonical units □p, ◇p, □◇p, ◇□p over random past formulas, plus the
// supported idioms (conditional forms, response, U/W over past operands,
// ◯-shifted invariance).
func RandomNormalizable(rng *rand.Rand, props []string, depth int) ltl.Formula {
	past := func() ltl.Formula {
		return RandomFormula(rng, FormulaOpts{Props: props, MaxDepth: 2, AllowPast: true})
	}
	unit := func() ltl.Formula {
		p := past()
		switch rng.Intn(9) {
		case 0:
			return ltl.Always{F: p}
		case 1:
			return ltl.Eventually{F: p}
		case 2:
			return ltl.Always{F: ltl.Eventually{F: p}}
		case 3:
			return ltl.Eventually{F: ltl.Always{F: p}}
		case 4:
			return ltl.Until{L: p, R: past()}
		case 5:
			return ltl.Unless{L: p, R: past()}
		case 6:
			return ltl.Always{F: ltl.Implies{L: p, R: ltl.Eventually{F: past()}}}
		case 7:
			return ltl.Always{F: ltl.Implies{L: p, R: ltl.Next{F: past()}}}
		default:
			return p
		}
	}
	if depth <= 0 {
		return unit()
	}
	switch rng.Intn(3) {
	case 0:
		return ltl.And{L: RandomNormalizable(rng, props, depth-1), R: RandomNormalizable(rng, props, depth-1)}
	case 1:
		return ltl.Or{L: RandomNormalizable(rng, props, depth-1), R: RandomNormalizable(rng, props, depth-1)}
	default:
		return unit()
	}
}

// UniverseProps are the propositions of the formula universe.
var UniverseProps = []string{"p", "q", "r", "s"}

// FormulaUniverse returns, as text, the first n distinct formulas that
// RandomNormalizable draws at depth 1 over UniverseProps from seed 1: the
// fixed formula set the classification workloads and the work-count pins
// replay.
func FormulaUniverse(n int) []string {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		s := RandomNormalizable(rng, UniverseProps, 1).String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Protocol is one scenario system with its known-verdict specifications.
type Protocol struct {
	Name  string
	Sys   *ts.System
	Specs []ts.ScenarioSpec
}

// Protocols builds the seven verify-protocols systems — ring mutexes
// under strong and weak fairness, leader election rings and cache
// coherence — with their scenario specifications, 42 pairs in all.
func Protocols() []Protocol {
	must := func(sys *ts.System, err error) *ts.System {
		if err != nil {
			panic(err) // the parameters are fixed and valid
		}
		return sys
	}
	return []Protocol{
		{"RingMutex(6,strong)", must(ts.RingMutex(6, ts.Strong)), ts.RingMutexSpecs(6, ts.Strong)},
		{"RingMutex(8,strong)", must(ts.RingMutex(8, ts.Strong)), ts.RingMutexSpecs(8, ts.Strong)},
		{"RingMutex(8,weak)", must(ts.RingMutex(8, ts.Weak)), ts.RingMutexSpecs(8, ts.Weak)},
		{"LeaderElection(5)", must(ts.LeaderElection(5)), ts.LeaderElectionSpecs(5)},
		{"LeaderElection(6)", must(ts.LeaderElection(6)), ts.LeaderElectionSpecs(6)},
		{"CacheCoherence(4)", must(ts.CacheCoherence(4)), ts.CacheCoherenceSpecs(4)},
		{"CacheCoherence(5)", must(ts.CacheCoherence(5)), ts.CacheCoherenceSpecs(5)},
	}
}
