package omega_test

// External tests of the lazy product search: concurrent queries over one
// shared automaton pair, and cancellation between exploration waves.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/omega"
)

// TestParallelRaceStress runs StructuralKey and ContainsCtx on one shared
// automaton pair from 8 goroutines at once, so the pair's shared kernels,
// CAS-published analyses and structural keys are first computed under
// contention. Run under -race by check.sh; every goroutine must agree
// with a single call on an identical, unshared pair.
func TestParallelRaceStress(t *testing.T) {
	refA, refB := gen.NestedCounters(ab, 23, 29)
	wantOK, wantW, err := refA.ContainsCtx(context.Background(), refB)
	if err != nil {
		t.Fatal(err)
	}
	wantKeyA, wantKeyB := refA.StructuralKey(), refB.StructuralKey()
	a, b := gen.NestedCounters(ab, 23, 29)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if a.StructuralKey() != wantKeyA || b.StructuralKey() != wantKeyB {
				errs[g] = errors.New("structural key differs from a single call's")
				return
			}
			ok, w, err := a.ContainsCtx(context.Background(), b)
			if err != nil {
				errs[g] = err
				return
			}
			if ok != wantOK || !reflect.DeepEqual(w, wantW) {
				errs[g] = fmt.Errorf("verdict (%v, %v), single call (%v, %v)", ok, w, wantOK, wantW)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestExploreCancellationMidWave cancels the context between two
// exploration waves: the next ExploreCtx call must return
// context.Canceled without closing another state.
func TestExploreCancellationMidWave(t *testing.T) {
	a, b := gen.NestedCounters(ab, 41, 43)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := omega.NewProductExplorer(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreCtx(ctx, 600); err != nil {
		t.Fatalf("pre-cancel exploration: %v", err)
	}
	closed := e.Materialized()
	cancel()
	done, err := e.ExploreCtx(ctx, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel exploration: done=%v err=%v, want context.Canceled", done, err)
	}
	if got := e.Materialized(); got != closed {
		t.Fatalf("post-cancel exploration closed %d states, want %d", got, closed)
	}
}
