package omega_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/omega"
)

// pairwiseIntersect is the test oracle for IntersectAllCtx: the eager
// two-factor product as it was built before the kernel's product, a BFS
// over (x, y) pairs charging one state per state closed, with a's pairs
// lifted before b's.
func pairwiseIntersect(ctx context.Context, a, b *omega.Automaton) (*omega.Automaton, error) {
	k := a.Alphabet().Size()
	in := autkern.NewPairInterner()
	in.Intern(a.Start(), b.Start())
	var trans [][]int
	for i := 0; i < in.Len(); i++ {
		if err := budget.Poll(ctx, 0); err != nil {
			return nil, err
		}
		if err := budget.ChargeStates(ctx, 1); err != nil {
			return nil, err
		}
		x, y := in.Pair(i)
		row := make([]int, k)
		for s := 0; s < k; s++ {
			row[s] = in.Intern(a.StepIndex(x, s), b.StepIndex(y, s))
		}
		trans = append(trans, row)
	}
	n := in.Len()
	var pairs []omega.Pair
	for side, c := range []*omega.Automaton{a, b} {
		for j := 0; j < c.NumPairs(); j++ {
			r, p := c.PairVectors(j)
			lifted := omega.Pair{R: make([]bool, n), P: make([]bool, n)}
			for i := 0; i < n; i++ {
				x, y := in.Pair(i)
				q := x
				if side == 1 {
					q = y
				}
				lifted.R[i], lifted.P[i] = r[q], p[q]
			}
			pairs = append(pairs, lifted)
		}
	}
	return omega.New(a.Alphabet(), trans, 0, pairs)
}

// foldIntersect folds pairwiseIntersect over the automata, building every
// intermediate product.
func foldIntersect(ctx context.Context, autos []*omega.Automaton) (*omega.Automaton, error) {
	out := autos[0]
	for _, next := range autos[1:] {
		var err error
		if out, err = pairwiseIntersect(ctx, out, next); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestIntersectAllMatchesPairwiseFold: IntersectAll of one to four
// random automata equals the pairwise fold state by state — start, rows
// and lifted pairs — and charges no more states than the fold, which
// builds each intermediate product too.
func TestIntersectAllMatchesPairwiseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	abc := alphabet.MustLetters("abc")
	for trial := 0; trial < 200; trial++ {
		alpha := ab
		if trial%3 == 0 {
			alpha = abc
		}
		autos := make([]*omega.Automaton, 1+trial%4)
		for i := range autos {
			autos[i] = gen.RandomStreett(rng, alpha, 1+rng.Intn(8), 1+rng.Intn(2), 0.3, 0.5)
		}
		foldBudget, allBudget := budget.New(1<<40, 0), budget.New(1<<40, 0)
		want, err := foldIntersect(budget.With(context.Background(), foldBudget), autos)
		if err != nil {
			t.Fatal(err)
		}
		got, err := omega.IntersectAllCtx(budget.With(context.Background(), allBudget), autos...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Start() != want.Start() || !reflect.DeepEqual(got.Kernel().Rows(), want.Kernel().Rows()) ||
			!reflect.DeepEqual(got.Pairs(), want.Pairs()) {
			t.Fatalf("trial %d, %d factors: IntersectAll differs from the pairwise fold:\n%v\nfold:\n%v",
				trial, len(autos), got, want)
		}
		if allBudget.States() > foldBudget.States() {
			t.Fatalf("trial %d, %d factors: IntersectAll charged %d states, the fold %d",
				trial, len(autos), allBudget.States(), foldBudget.States())
		}
	}
}
