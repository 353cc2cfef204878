package omega_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/omega"
)

func TestReducePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for i := 0; i < 40; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(6), 1+rng.Intn(2), 0.3, 0.4)
		r := a.Reduce()
		if r.NumStates() > a.NumStates() {
			t.Fatalf("Reduce grew the automaton: %d -> %d", a.NumStates(), r.NumStates())
		}
		eq, ce, err := a.Equivalent(r)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("Reduce changed the language (witness %v)", ce)
		}
	}
}

func TestReduceMergesDuplicates(t *testing.T) {
	// Two copies of the same Büchi automaton glued side by side: the
	// quotient must collapse back to the original size.
	base := lang.R(lang.MustRegex(".*b", ab)) // 2 states
	n := base.NumStates()
	k := base.Alphabet().Size()
	trans := make([][]int, 2*n)
	pair := omega.Pair{R: make([]bool, 2*n), P: make([]bool, 2*n)}
	rBase, pBase := base.PairVectors(0)
	for q := 0; q < n; q++ {
		rowA := make([]int, k)
		rowB := make([]int, k)
		for s := 0; s < k; s++ {
			// Copy A feeds into copy B and vice versa: still bisimilar.
			rowA[s] = base.StepIndex(q, s) + n
			rowB[s] = base.StepIndex(q, s)
		}
		trans[q] = rowA
		trans[q+n] = rowB
		pair.R[q], pair.R[q+n] = rBase[q], rBase[q]
		pair.P[q], pair.P[q+n] = pBase[q], pBase[q]
	}
	doubled := omega.MustNew(base.Alphabet(), trans, base.Start(), []omega.Pair{pair})
	reduced := doubled.Reduce()
	if reduced.NumStates() != n {
		t.Errorf("doubled automaton reduced to %d states, want %d", reduced.NumStates(), n)
	}
	eq, _, err := reduced.Equivalent(base)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("reduction changed the language")
	}
}

func TestReduceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for i := 0; i < 20; i++ {
		a := gen.RandomStreett(rng, ab, 3+rng.Intn(5), 1, 0.3, 0.4)
		once := a.Reduce()
		twice := once.Reduce()
		if once.NumStates() != twice.NumStates() {
			t.Fatalf("Reduce not idempotent: %d -> %d", once.NumStates(), twice.NumStates())
		}
	}
}

// mooreReduce is the reference reduction, Reduce as it was before the
// kernel's Hopcroft refinement: it trims the automaton to its reachable
// states, colors each state by its R/P membership across the pairs,
// splits every class by the classes of its successors until the class
// count stops growing, and numbers the classes in BFS order from the
// start class, each represented by its first state.
func mooreReduce(a *omega.Automaton) *omega.Automaton {
	t := a.Trim()
	n, k := t.NumStates(), t.Alphabet().Size()
	class := make([]int, n)
	colors := map[string]int{}
	for q := 0; q < n; q++ {
		key := ""
		for i := 0; i < t.NumPairs(); i++ {
			r, p := t.PairVectors(i)
			key += fmt.Sprintf("%v%v,", r[q], p[q])
		}
		if _, ok := colors[key]; !ok {
			colors[key] = len(colors)
		}
		class[q] = colors[key]
	}
	count := len(colors)
	for {
		sigs := map[string]int{}
		next := make([]int, n)
		for q := 0; q < n; q++ {
			sig := fmt.Sprint(class[q])
			for s := 0; s < k; s++ {
				sig += fmt.Sprintf(",%d", class[t.StepIndex(q, s)])
			}
			if _, ok := sigs[sig]; !ok {
				sigs[sig] = len(sigs)
			}
			next[q] = sigs[sig]
		}
		class = next
		if len(sigs) == count {
			break
		}
		count = len(sigs)
	}
	rep := make([]int, count)
	for i := range rep {
		rep[i] = -1
	}
	for q := 0; q < n; q++ {
		if rep[class[q]] < 0 {
			rep[class[q]] = q
		}
	}
	pos := map[int]int{class[t.Start()]: 0}
	order := []int{class[t.Start()]}
	for i := 0; i < len(order); i++ {
		for s := 0; s < k; s++ {
			c := class[t.StepIndex(rep[order[i]], s)]
			if _, ok := pos[c]; !ok {
				pos[c] = len(order)
				order = append(order, c)
			}
		}
	}
	trans := make([][]int, len(order))
	pairs := make([]omega.Pair, t.NumPairs())
	for i := range pairs {
		pairs[i] = omega.Pair{R: make([]bool, len(order)), P: make([]bool, len(order))}
	}
	for i, c := range order {
		q := rep[c]
		trans[i] = make([]int, k)
		for s := 0; s < k; s++ {
			trans[i][s] = pos[class[t.StepIndex(q, s)]]
		}
		for pi := range pairs {
			r, p := t.PairVectors(pi)
			pairs[pi].R[i], pairs[pi].P[i] = r[q], p[q]
		}
	}
	return omega.MustNew(t.Alphabet(), trans, 0, pairs)
}

// TestReduceMatchesMoore pins Reduce, the kernel's Hopcroft quotient
// under the R/P coloring, to the Moore reduction it replaced: on random
// Streett automata over 1, 2, 4 and 16 symbols with 1–3 pairs and R
// probabilities 0, 0.1, 0.5 and 0.9, many with unreachable states, both
// give the same structural key, start state and pair vectors.
func TestReduceMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	alphas := []*alphabet.Alphabet{
		alphabet.MustLetters("a"),
		alphabet.MustLetters("ab"),
		alphabet.MustLetters("abcd"),
	}
	vals, err := alphabet.Valuations([]string{"p", "q", "r", "s"})
	if err != nil {
		t.Fatal(err)
	}
	alphas = append(alphas, vals)
	checked, unreachable := 0, 0
	for _, alpha := range alphas {
		for pairs := 1; pairs <= 3; pairs++ {
			for _, rProb := range []float64{0, 0.1, 0.5, 0.9} {
				for n := 1; n <= 64; n += 1 + n/8 {
					a := gen.RandomStreett(rng, alpha, n, pairs, rProb, 0.4)
					if a.Trim().NumStates() < n {
						unreachable++
					}
					got, want := a.Reduce(), mooreReduce(a)
					label := fmt.Sprintf("|Σ|=%d pairs=%d r=%v n=%d", alpha.Size(), pairs, rProb, n)
					if got.StructuralKey() != want.StructuralKey() || got.Start() != want.Start() || got.NumStates() != want.NumStates() {
						t.Fatalf("%s: Reduce %v, Moore %v", label, got, want)
					}
					for i := 0; i < pairs; i++ {
						gr, gp := got.PairVectors(i)
						wr, wp := want.PairVectors(i)
						if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gp, wp) {
							t.Fatalf("%s: pair %d is (%v, %v), Moore (%v, %v)", label, i, gr, gp, wr, wp)
						}
					}
					checked++
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatalf("none of the %d automata had an unreachable state", checked)
	}
}
