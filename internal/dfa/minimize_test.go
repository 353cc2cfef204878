package dfa_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/budget"
	"repro/internal/dfa"
	"repro/internal/fault"
	"repro/internal/gen"
)

// mooreMinimize is the reference minimizer: Moore's refinement splits
// every class of reachable states by the classes of its successors until
// the class count stops growing, and the classes are then numbered in BFS
// order from the start class, as Minimize numbers its blocks. It returns
// the transition table and accept vector of the quotient.
func mooreMinimize(d *dfa.DFA) ([][]int, []bool) {
	n, k := d.NumStates(), d.Alphabet().Size()
	reach := d.Reachable()
	class := make([]int, n)
	seen := map[bool]bool{}
	for q := 0; q < n; q++ {
		if reach[q] {
			if d.Accepting(q) {
				class[q] = 1
			}
			seen[d.Accepting(q)] = true
		}
	}
	count := len(seen)
	for {
		ids := map[string]int{}
		next := make([]int, n)
		for q := 0; q < n; q++ {
			if !reach[q] {
				continue
			}
			sig := fmt.Sprint(class[q])
			for s := 0; s < k; s++ {
				sig += fmt.Sprintf(",%d", class[d.StepIndex(q, s)])
			}
			id, ok := ids[sig]
			if !ok {
				id = len(ids)
				ids[sig] = id
			}
			next[q] = id
		}
		class = next
		if len(ids) == count {
			break
		}
		count = len(ids)
	}
	pos := map[int]int{class[d.Start()]: 0}
	rep := []int{d.Start()}
	for i := 0; i < len(rep); i++ {
		for s := 0; s < k; s++ {
			next := d.StepIndex(rep[i], s)
			if _, ok := pos[class[next]]; !ok {
				pos[class[next]] = len(rep)
				rep = append(rep, next)
			}
		}
	}
	trans := make([][]int, len(rep))
	accept := make([]bool, len(rep))
	for i, q := range rep {
		trans[i] = make([]int, k)
		for s := 0; s < k; s++ {
			trans[i][s] = pos[class[d.StepIndex(q, s)]]
		}
		accept[i] = d.Accepting(q)
	}
	return trans, accept
}

// TestMinimizeMatchesMoore pins the array Hopcroft refinement to the
// reference: on random DFAs of 1–200 states over 1, 2, 4 and 16 symbols
// and several accept probabilities, Minimize returns exactly the
// transition table and accept vector of Moore's refinement under the
// same BFS numbering.
func TestMinimizeMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, letters := range []string{"a", "ab", "abcd", "abcdefghijklmnop"} {
		alpha := alphabet.MustLetters(letters)
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for n := 1; n <= 200; n += 1 + n/8 {
				d := gen.RandomDFA(rng, alpha, n, p)
				m := d.Minimize()
				trans, accept := mooreMinimize(d)
				label := fmt.Sprintf("|Σ|=%d p=%v n=%d", alpha.Size(), p, n)
				if m.NumStates() != len(trans) || m.Start() != 0 {
					t.Fatalf("%s: Minimize has %d states (start %d), Moore %d", label, m.NumStates(), m.Start(), len(trans))
				}
				for q := range trans {
					if m.Accepting(q) != accept[q] {
						t.Fatalf("%s: state %d accepting %v, Moore %v", label, q, m.Accepting(q), accept[q])
					}
					for s, next := range trans[q] {
						if got := m.StepIndex(q, s); got != next {
							t.Fatalf("%s: δ(%d, %d) = %d, Moore %d", label, q, s, got, next)
						}
					}
				}
			}
		}
	}
}

// splitterPasses returns how many splitter passes minimizing d takes:
// each charges one budget step.
func splitterPasses(t *testing.T, d *dfa.DFA) int64 {
	t.Helper()
	b := budget.New(0, 1<<40)
	if _, err := d.MinimizeCtx(budget.With(context.Background(), b)); err != nil {
		t.Fatal(err)
	}
	return b.Steps()
}

var ab4 = alphabet.MustLetters("abcd")

// TestMinimizeFaultAtNthSplitter: the dfa.minimize site fires on the
// splitter pass it is armed for, and the minimizer returns the injected
// error.
func TestMinimizeFaultAtNthSplitter(t *testing.T) {
	defer fault.Reset()
	d := gen.RandomDFA(rand.New(rand.NewSource(5)), ab4, 60, 0.4)
	passes := splitterPasses(t, d)
	if passes < 3 {
		t.Fatalf("only %d splitter passes; the test needs a larger automaton", passes)
	}
	boom := errors.New("boom")
	for _, nth := range []int{1, int(passes / 2), int(passes)} {
		cleanup := fault.InjectError(fault.SiteDFAMinimize, nth, boom)
		m, err := d.MinimizeCtx(context.Background())
		cleanup()
		if !errors.Is(err, boom) || m != nil {
			t.Fatalf("armed at pass %d of %d: got (%v, %v), want the injected error", nth, passes, m, err)
		}
	}
}

// TestMinimizeStepCap: a step cap below the splitter count aborts with
// budget.ErrBudgetExceeded; a cap equal to it does not.
func TestMinimizeStepCap(t *testing.T) {
	d := gen.RandomDFA(rand.New(rand.NewSource(6)), ab4, 60, 0.4)
	passes := splitterPasses(t, d)
	ctx := budget.With(context.Background(), budget.New(0, passes-1))
	if _, err := d.MinimizeCtx(ctx); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("cap %d below %d passes: got %v, want ErrBudgetExceeded", passes-1, passes, err)
	}
	ctx = budget.With(context.Background(), budget.New(0, passes))
	if _, err := d.MinimizeCtx(ctx); err != nil {
		t.Fatalf("cap equal to the %d passes: %v", passes, err)
	}
}

// TestMinimizeOnce: a DFA the minimizer returned comes back as the same
// value, with no splitter pass — no step charged, the armed site does
// not fire — while a copy that is not marked minimal is refined to the
// same table.
func TestMinimizeOnce(t *testing.T) {
	defer fault.Reset()
	d := gen.RandomDFA(rand.New(rand.NewSource(7)), ab4, 60, 0.4)
	m := d.Minimize()
	defer fault.InjectError(fault.SiteDFAMinimize, 1, errors.New("boom"))()
	b := budget.New(0, 1<<40)
	again, err := m.MinimizeCtx(budget.With(context.Background(), b))
	if err != nil || again != m {
		t.Fatalf("minimizing a minimal DFA: got (%p, %v), want (%p, nil)", again, err, m)
	}
	if m.Minimize() != m {
		t.Fatal("Minimize of a minimal DFA returned a new value")
	}
	if b.Steps() != 0 || fault.Fired(fault.SiteDFAMinimize) {
		t.Fatalf("a minimal DFA ran a splitter pass: %d steps, fired=%v", b.Steps(), fault.Fired(fault.SiteDFAMinimize))
	}
	fault.Reset()
	c := m.Clone().Minimize()
	if c == m || c.NumStates() != m.NumStates() {
		t.Fatalf("refining a copy: got %p with %d states, want a new value with %d", c, c.NumStates(), m.NumStates())
	}
	for q := 0; q < m.NumStates(); q++ {
		for s := 0; s < ab4.Size(); s++ {
			if c.StepIndex(q, s) != m.StepIndex(q, s) || c.Accepting(q) != m.Accepting(q) {
				t.Fatalf("refined copy differs from the minimal DFA at state %d", q)
			}
		}
	}
}
