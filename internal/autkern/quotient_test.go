package autkern

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/budget"
)

// coloredKernel returns randomKernel(rng, n, width) with a uniform
// random coloring of its states in 0..colors-1.
func coloredKernel(rng *rand.Rand, n, width, colors int) (*Kernel, []int32) {
	kn := randomKernel(rng, n, width)
	color := make([]int32, n)
	for q := range color {
		color[q] = int32(rng.Intn(colors))
	}
	return kn, color
}

// mooreQuotient is the reference: Moore's refinement splits every class
// of reachable states by the classes of its successors, starting from
// the coloring, until the class count stops growing; the classes are
// then numbered in BFS order from the start class, as Quotient numbers
// its blocks. It returns the quotient's rows and each class's color.
func mooreQuotient(kn *Kernel, color []int32) ([][]int, []int32) {
	n, k := kn.NumStates(), kn.Width()
	reach := kn.Reachable()
	class := make([]int, n)
	count := 0
	for q := 0; q < n; q++ {
		class[q] = int(color[q])
	}
	for {
		ids := map[string]int{}
		next := make([]int, n)
		for q := 0; q < n; q++ {
			if !reach[q] {
				continue
			}
			sig := fmt.Sprint(class[q])
			for s := 0; s < k; s++ {
				sig += fmt.Sprintf(",%d", class[kn.Step(q, s)])
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
	pos := map[int]int{class[kn.Start()]: 0}
	rep := []int{kn.Start()}
	for i := 0; i < len(rep); i++ {
		for s := 0; s < k; s++ {
			next := kn.Step(rep[i], s)
			if _, ok := pos[class[next]]; !ok {
				pos[class[next]] = len(rep)
				rep = append(rep, next)
			}
		}
	}
	rows := make([][]int, len(rep))
	colors := make([]int32, len(rep))
	for i, q := range rep {
		rows[i] = make([]int, k)
		for s := 0; s < k; s++ {
			rows[i][s] = pos[class[kn.Step(q, s)]]
		}
		colors[i] = color[q]
	}
	return rows, colors
}

// TestQuotientMatchesMoore pins the array Hopcroft refinement to the
// reference: on random complete kernels of 1–200 states over widths 1,
// 2, 4 and 16, colored with 1–4 colors, Quotient returns exactly the
// rows of Moore's refinement under the same BFS numbering, and each
// block's representative carries its class's color.
func TestQuotientMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, width := range []int{1, 2, 4, 16} {
		for colors := 1; colors <= 4; colors++ {
			for n := 1; n <= 200; n += 1 + n/8 {
				kn, color := coloredKernel(rng, n, width, colors)
				rows, rep, err := kn.Quotient(context.Background(), color, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantRows, wantColors := mooreQuotient(kn, color)
				label := fmt.Sprintf("width=%d colors=%d n=%d", width, colors, n)
				if !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("%s: rows %v, Moore %v", label, rows, wantRows)
				}
				if len(rep) != len(rows) {
					t.Fatalf("%s: %d representatives for %d blocks", label, len(rep), len(rows))
				}
				for i, q := range rep {
					if !kn.Reachable()[q] || color[q] != wantColors[i] {
						t.Fatalf("%s: block %d represented by state %d (color %d, reachable %v), Moore's class has color %d",
							label, i, q, color[q], kn.Reachable()[q], wantColors[i])
					}
				}
			}
		}
	}
}

// TestQuotientIgnoresUnreachable: an unreachable state takes no block,
// whatever its color, and the quotient of a kernel whose reachable
// states share one color and one successor block is one state.
func TestQuotientIgnoresUnreachable(t *testing.T) {
	kn := diamond() // 4 is unreachable
	rows, rep, err := kn.Quotient(context.Background(), []int32{0, 0, 0, 0, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 0}}; !reflect.DeepEqual(rows, want) || len(rep) != 1 || rep[0] == 4 {
		t.Fatalf("Quotient = (%v, %v), want %v with a reachable representative", rows, rep, want)
	}
	rows, _, err = kn.Quotient(context.Background(), []int32{0, 1, 1, 2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1, 1}, {2, 2}, {2, 2}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("Quotient = %v, want %v", rows, want)
	}
}

// splitterPasses returns how many splitter passes refining kn from color
// takes, counted by the hook; each charges one budget step too.
func splitterPasses(t *testing.T, kn *Kernel, color []int32) int {
	t.Helper()
	passes := 0
	b := budget.New(0, 1<<40)
	if _, _, err := kn.Quotient(budget.With(context.Background(), b), color, func() error {
		passes++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(passes) != b.Steps() {
		t.Fatalf("%d hook calls but %d budget steps", passes, b.Steps())
	}
	return passes
}

// TestQuotientHookErrorAtNthPass: the hook runs once per splitter pass,
// and an error it returns at pass N aborts the refinement with that
// error after exactly N calls.
func TestQuotientHookErrorAtNthPass(t *testing.T) {
	kn, color := coloredKernel(rand.New(rand.NewSource(5)), 60, 4, 2)
	passes := splitterPasses(t, kn, color)
	if passes < 3 {
		t.Fatalf("only %d splitter passes; the test needs a larger kernel", passes)
	}
	boom := errors.New("boom")
	for _, nth := range []int{1, passes / 2, passes} {
		calls := 0
		rows, rep, err := kn.Quotient(context.Background(), color, func() error {
			calls++
			if calls == nth {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || rows != nil || rep != nil || calls != nth {
			t.Fatalf("hook failing at pass %d of %d: got (%v, %v, %v) after %d calls, want the hook's error",
				nth, passes, rows, rep, err, calls)
		}
	}
}

// TestQuotientStepCap: a step cap one below the splitter count aborts
// with budget.ErrBudgetExceeded; a cap equal to it does not.
func TestQuotientStepCap(t *testing.T) {
	kn, color := coloredKernel(rand.New(rand.NewSource(6)), 60, 4, 3)
	passes := int64(splitterPasses(t, kn, color))
	ctx := budget.With(context.Background(), budget.New(0, passes-1))
	if _, _, err := kn.Quotient(ctx, color, nil); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("cap %d below %d passes: got %v, want ErrBudgetExceeded", passes-1, passes, err)
	}
	ctx = budget.With(context.Background(), budget.New(0, passes))
	if _, _, err := kn.Quotient(ctx, color, nil); err != nil {
		t.Fatalf("cap equal to the %d passes: %v", passes, err)
	}
}

// TestQuotientCanceled: a canceled context aborts at the first splitter
// pass, before the hook's second call.
func TestQuotientCanceled(t *testing.T) {
	kn, color := coloredKernel(rand.New(rand.NewSource(7)), 60, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, _, err := kn.Quotient(ctx, color, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("canceled context: got %v after %d hook calls, want context.Canceled after 1", err, calls)
	}
}
