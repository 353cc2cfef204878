package autkern

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/budget"
)

// referenceProduct is the test oracle for Product: a BFS from the joint
// start over state tuples kept in a map, stepping every factor on each
// symbol in turn. It returns the rows and the tuple of each state.
func referenceProduct(factors []*Kernel) (rows [][]int, tuples [][]int) {
	index := map[string]int{}
	intern := func(t []int) int {
		key := fmt.Sprint(t)
		if i, ok := index[key]; ok {
			return i
		}
		index[key] = len(tuples)
		tuples = append(tuples, t)
		return len(tuples) - 1
	}
	start := make([]int, len(factors))
	for f, kn := range factors {
		start[f] = kn.Start()
	}
	intern(start)
	width := factors[0].Width()
	for i := 0; i < len(tuples); i++ {
		row := make([]int, width)
		for s := range row {
			next := make([]int, len(factors))
			for f, kn := range factors {
				next[f] = kn.Step(tuples[i][f], s)
			}
			row[s] = intern(next)
		}
		rows = append(rows, row)
	}
	return rows, tuples
}

// randomFactors draws nf random complete kernels of one width, each of
// 1–60 states with a random start. Three factors are redrawn until the
// product of their sizes is at most 16,384, which keeps the test small.
func randomFactors(rng *rand.Rand, nf, width int) []*Kernel {
	for {
		factors := make([]*Kernel, nf)
		size := 1
		for f := range factors {
			n := 1 + rng.Intn(60)
			size *= n
			factors[f] = randomKernel(rng, n, width).WithStart(rng.Intn(n))
		}
		if nf < 3 || size <= 1<<14 {
			return factors
		}
	}
}

// checkAgainstReference compares p, explored to the end, with the
// reference product of its factors, state by state.
func checkAgainstReference(t *testing.T, p *Product, factors []*Kernel) {
	t.Helper()
	rows, tuples := referenceProduct(factors)
	if p.Len() != len(rows) || p.Closed() != len(rows) {
		t.Fatalf("product has %d states, %d closed; reference %d", p.Len(), p.Closed(), len(rows))
	}
	for i, want := range rows {
		if got := p.Rows()[i]; !slices.Equal(got, want) {
			t.Fatalf("state %d: row %v, reference %v", i, got, want)
		}
		for f, q := range tuples[i] {
			if got := p.State(i, f); got != q {
				t.Fatalf("state %d factor %d: state %d, reference %d", i, f, got, q)
			}
		}
	}
}

// TestProductMatchesReference: on random complete kernels — one, two and
// three factors (the tuple, pair and tuple interning paths), widths 1, 2,
// 4 and 16 — a product explored to the end equals the reference BFS,
// rows and tuples, state by state.
func TestProductMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for nf := 1; nf <= 3; nf++ {
		for _, width := range []int{1, 2, 4, 16} {
			for trial := 0; trial < 6; trial++ {
				factors := randomFactors(rng, nf, width)
				p := NewProduct(factors...)
				done, err := p.Explore(context.Background(), math.MaxInt, nil)
				if err != nil || !done {
					t.Fatalf("%d factors, width %d: done=%v err=%v", nf, width, done, err)
				}
				checkAgainstReference(t, p, factors)
			}
		}
	}
}

// TestProductExploreMonotone: Explore closes exactly up to its limit, in
// discovery order, leaving the frontier's rows nil; a limit at or below
// the closed count closes nothing; and a product explored in waves ends
// equal to the reference.
func TestProductExploreMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, nf := range []int{2, 3} {
		factors := []*Kernel{randomKernel(rng, 30, 2), randomKernel(rng, 29, 2), randomKernel(rng, 7, 2)}[:nf]
		p := NewProduct(factors...)
		if p.Len() != 1 || p.Closed() != 0 {
			t.Fatalf("fresh product: %d discovered, %d closed", p.Len(), p.Closed())
		}
		for _, limit := range []int{5, 3, 5, 40, 1, 200} {
			before := p.Closed()
			done, err := p.Explore(context.Background(), limit, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(max(before, limit), p.Len()); p.Closed() != want {
				t.Fatalf("limit %d after %d closed: %d closed, want %d", limit, before, p.Closed(), want)
			}
			if done != (p.Closed() == p.Len()) {
				t.Fatalf("limit %d: done=%v with %d of %d closed", limit, done, p.Closed(), p.Len())
			}
			for i, row := range p.Rows() {
				if (row != nil) != (i < p.Closed()) {
					t.Fatalf("limit %d: state %d has row %v with %d closed", limit, i, row, p.Closed())
				}
			}
		}
		if _, err := p.Explore(context.Background(), math.MaxInt, nil); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, p, factors)
	}
}

// productSize returns the number of reachable states of the product of
// the factors.
func productSize(t *testing.T, factors ...*Kernel) int {
	t.Helper()
	p := NewProduct(factors...)
	if _, err := p.Explore(context.Background(), math.MaxInt, nil); err != nil {
		t.Fatal(err)
	}
	return p.Len()
}

// TestProductHookErrorAtNthState: the hook runs once per state, before
// the state is closed, and an error it returns at state N stops
// exploration with that error and N−1 states closed.
func TestProductHookErrorAtNthState(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	factors := []*Kernel{randomKernel(rng, 20, 2), randomKernel(rng, 21, 2)}
	total := productSize(t, factors...)
	boom := errors.New("boom")
	for _, nth := range []int{1, total / 2, total} {
		p := NewProduct(factors...)
		calls := 0
		done, err := p.Explore(context.Background(), math.MaxInt, func() error {
			calls++
			if calls == nth {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || done || calls != nth || p.Closed() != nth-1 {
			t.Fatalf("hook failing at state %d of %d: done=%v err=%v after %d calls, %d closed",
				nth, total, done, err, calls, p.Closed())
		}
	}
}

// TestProductStateCap: each closed state charges one state, so a cap
// one below the product's size aborts with budget.ErrBudgetExceeded
// with the cap's worth closed, and a cap equal to it does not.
func TestProductStateCap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	factors := []*Kernel{randomKernel(rng, 9, 2), randomKernel(rng, 8, 2), randomKernel(rng, 5, 2)}
	total := productSize(t, factors...)
	p := NewProduct(factors...)
	ctx := budget.With(context.Background(), budget.New(int64(total-1), 0))
	if _, err := p.Explore(ctx, math.MaxInt, nil); !errors.Is(err, budget.ErrBudgetExceeded) || p.Closed() != total-1 {
		t.Fatalf("cap %d below %d states: err=%v with %d closed", total-1, total, err, p.Closed())
	}
	b := budget.New(int64(total), 0)
	p = NewProduct(factors...)
	if _, err := p.Explore(budget.With(context.Background(), b), math.MaxInt, nil); err != nil || b.States() != int64(total) {
		t.Fatalf("cap equal to the %d states: err=%v, %d charged", total, err, b.States())
	}
}

// TestProductSpentStepCap: a budget whose step cap is already spent
// stops exploration before the first state, as budget.Poll would.
func TestProductSpentStepCap(t *testing.T) {
	b := budget.New(0, 1)
	if err := b.ChargeSteps(2); err == nil {
		t.Fatal("charging past the step cap did not fail")
	}
	p := NewProduct(randomKernel(rand.New(rand.NewSource(29)), 10, 2), diamond())
	if _, err := p.Explore(budget.With(context.Background(), b), math.MaxInt, nil); !errors.Is(err, budget.ErrBudgetExceeded) || p.Closed() != 0 {
		t.Fatalf("spent step cap: err=%v with %d closed", err, p.Closed())
	}
}

// TestProductCanceled: a canceled context aborts at the first state,
// after the hook's first call and before anything closes.
func TestProductCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewProduct(diamond(), twoCycles())
	calls := 0
	_, err := p.Explore(ctx, math.MaxInt, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 1 || p.Closed() != 0 {
		t.Fatalf("canceled context: err=%v after %d hook calls, %d closed", err, calls, p.Closed())
	}
}

// referenceTrim is the test oracle for Trim: the reachable states, found
// by a breadth-first walk and then sorted, renumbered by their rank.
func referenceTrim(kn *Kernel) (rows [][]int, start int, kept []int) {
	seen := map[int]bool{kn.Start(): true}
	queue := []int{kn.Start()}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, next := range kn.Row(q) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	for q := range seen {
		kept = append(kept, q)
	}
	slices.Sort(kept)
	rank := func(q int) int { i, _ := slices.BinarySearch(kept, q); return i }
	for _, q := range kept {
		row := make([]int, kn.Width())
		for s, next := range kn.Row(q) {
			row[s] = rank(next)
		}
		rows = append(rows, row)
	}
	return rows, rank(kn.Start()), kept
}

// TestTrimMatchesReference: on random kernels whose transitions target
// only a random subset of the states, so that many states are
// unreachable, Trim keeps the reachable states in ascending order with
// the reference's rows and start.
func TestTrimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		n, width := 1+rng.Intn(40), 1+rng.Intn(4)
		targets := rng.Perm(n)[:1+rng.Intn(n)]
		rows := make([][]int, n)
		for q := range rows {
			rows[q] = make([]int, width)
			for s := range rows[q] {
				rows[q][s] = targets[rng.Intn(len(targets))]
			}
		}
		kn := New(rows, width, rng.Intn(n))
		got, kept := kn.Trim()
		wantRows, wantStart, wantKept := referenceTrim(kn)
		if !reflect.DeepEqual(got.Rows(), wantRows) || got.Start() != wantStart || !slices.Equal(kept, wantKept) ||
			got.Width() != width {
			t.Fatalf("trial %d: Trim gave rows %v start %d kept %v, reference %v %d %v",
				trial, got.Rows(), got.Start(), kept, wantRows, wantStart, wantKept)
		}
	}
}
