package main

import (
	"math/rand"
	"regexp"
	"sort"

	"repro/internal/gen"
)

// universeProps are the propositions of the formula universe.
var universeProps = []string{"p", "q", "r", "s"}

// universeSeed fixes the formulas every run draws from.
//
// Random formulas vary widely in cost: one in a hundred takes a third of
// the compile time, so two independently drawn sets of a few thousand
// formulas differ by about 20% at p99, and even permuting the
// propositions of a set changes its cost by as much. Every run therefore
// draws from the same universe of formulas; the run's seed picks the
// names its four propositions take, in the order p, q, r, s have (so
// every construction does the same work), and the order of requests.
// Requests differ in text between seeds and never repeat within a run.
const universeSeed = 1

// formulaUniverse returns the first n distinct formulas, as text, that
// gen.RandomNormalizable draws at depth 1 from universeSeed.
func formulaUniverse(n int) []string {
	rng := rand.New(rand.NewSource(universeSeed))
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		s := gen.RandomNormalizable(rng, universeProps, 1).String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// seedProps draws four distinct one-letter proposition names, in
// increasing order.
func seedProps(rng *rand.Rand) []string {
	letters := rng.Perm(26)[:len(universeProps)]
	sort.Ints(letters)
	names := make([]string, len(letters))
	for i, l := range letters {
		names[i] = string(rune('a' + l))
	}
	return names
}

var propToken = regexp.MustCompile(`\b[pqrs]\b`)

// rename maps the universe propositions p, q, r, s of each formula text
// to names.
func rename(texts []string, names []string) []string {
	to := map[string]string{}
	for i, p := range universeProps {
		to[p] = names[i]
	}
	out := make([]string, len(texts))
	for i, t := range texts {
		out[i] = propToken.ReplaceAllStringFunc(t, func(p string) string { return to[p] })
	}
	return out
}
