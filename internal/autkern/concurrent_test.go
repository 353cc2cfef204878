package autkern

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomKernel builds a dense random transition kernel for the racing
// tests — big enough that the analyses take real work, so concurrent
// callers genuinely overlap.
func randomKernel(rng *rand.Rand, n, width int) *Kernel {
	rows := make([][]int, n)
	for q := range rows {
		row := make([]int, width)
		for s := range row {
			row[s] = rng.Intn(n)
		}
		rows[q] = row
	}
	return New(rows, width, 0)
}

// TestConcurrentAnalysesPublishOnce races many goroutines computing the
// kernel's memoized analyses — Reachable, Reverse, SCCs(nil) — and
// asserts every caller observes the same published value. The memo slots
// publish via CompareAndSwap, so all callers must converge on one backing
// result even when several compute it simultaneously. The engine's
// fan-out runs queries over one automaton on several goroutines at once,
// so a torn or per-caller result here would let two of them disagree
// about the same automaton. Run under -race by check.sh.
func TestConcurrentAnalysesPublishOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		kn := randomKernel(rng, 400+trial*100, 3)
		const goroutines = 8
		var wg sync.WaitGroup
		reaches := make([][]bool, goroutines)
		revs := make([][][]int, goroutines)
		sccs := make([][][]int, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				reaches[g] = kn.Reachable()
				revs[g] = kn.Reverse()
				sccs[g] = kn.SCCs(nil)
			}(g)
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			// The CAS publication means every caller gets the same backing
			// slices, not merely equal ones.
			if &reaches[g][0] != &reaches[0][0] {
				t.Fatalf("trial %d: goroutine %d saw a different Reachable publication", trial, g)
			}
			if !reflect.DeepEqual(revs[g], revs[0]) {
				t.Fatalf("trial %d: goroutine %d saw a different Reverse", trial, g)
			}
			if !reflect.DeepEqual(sccs[g], sccs[0]) {
				t.Fatalf("trial %d: goroutine %d saw a different SCC decomposition", trial, g)
			}
		}
	}
}
