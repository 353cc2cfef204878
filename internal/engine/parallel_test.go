package engine_test

// Engine-level governance for the sharded parallel search: a
// WithParallelism engine attaches its worker bound to every request
// context, so the lazy Streett product exploration shards its waves at
// the production thresholds when the product is large enough. A fault
// injected at the lazy site in that mode must (a) surface, (b) never
// leave a verdict in the memo cache, and (c) degrade bit-identically —
// same error, same states-materialized count — to a single-worker
// engine.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
)

var (
	cntLazyStatesEng = obs.NewCounter("omega.lazy.states_materialized")
	cntParWavesEng   = obs.NewCounter("omega.parallel.waves")
)

// bigFairnessPair compiles a five-pair conjoined-fairness containment
// whose container automaton has 1024 states: mixed Streett pairs defeat
// every planner probe, the containment holds so the lazy path explores
// the full product, and the product is large enough that a parallel
// engine shards its waves at the production thresholds.
func bigFairnessPair(t *testing.T) (a, b *omega.Automaton) {
	t.Helper()
	props := []string{"p", "q", "r", "s", "u", "v", "w", "x", "y", "z"}
	eng := engine.New()
	a, err := eng.CompileFormula(context.Background(), ltl.MustParse(
		"(G F p -> G F q) & (G F r -> G F s) & (G F u -> G F v) & (G F w -> G F x) & (G F y -> G F z)"), props)
	if err != nil {
		t.Fatal(err)
	}
	b, err = eng.CompileFormula(context.Background(), ltl.MustParse(
		"G F q & G F s & G F v & G F x & G F z"), props)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestParallelEngineMatchesSequential checks a WithParallelism engine
// produces the identical verdict and witness as a single-worker engine on
// a product big enough to shard — and that the sharded wave path really
// engaged.
func TestParallelEngineMatchesSequential(t *testing.T) {
	a, b := bigFairnessPair(t)
	seq, err := checkContains(context.Background(), engine.New(engine.WithParallelism(1)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	wavesBefore := cntParWavesEng.Value()
	par, err := checkContains(context.Background(), engine.New(engine.WithParallelism(8)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if par.Holds != seq.Holds || !reflect.DeepEqual(par.Witness, seq.Witness) {
		t.Fatalf("parallel engine (%v, %v) != sequential engine (%v, %v)", par.Holds, par.Witness, seq.Holds, seq.Witness)
	}
	if !par.Holds {
		t.Fatal("conjoined fairness containment must hold")
	}
	if cntParWavesEng.Value() == wavesBefore {
		t.Fatal("parallel engine never engaged the sharded wave path")
	}
}

// TestParallelEngineFaultGovernance mirrors TestContainsUnderLazyFault on
// the sharded path: the injection lands mid-exploration of a genuinely
// sharded product, yet the abort must be indistinguishable from the
// single-worker engine's, and nothing may be cached.
func TestParallelEngineFaultGovernance(t *testing.T) {
	defer fault.Reset()
	a, b := bigFairnessPair(t)
	boom := errors.New("injected parallel lazy fault")
	run := func(workers int) (*engine.Engine, error, int64) {
		eng := engine.New(engine.WithParallelism(workers))
		cleanup := fault.InjectError(fault.SiteOmegaLazy, 500, boom)
		defer cleanup()
		before := cntLazyStatesEng.Value()
		_, err := checkContains(context.Background(), eng, a, b)
		return eng, err, cntLazyStatesEng.Value() - before
	}
	_, seqErr, seqStates := run(1)
	if !errors.Is(seqErr, boom) {
		t.Fatalf("single-worker run should surface the injection, got %v", seqErr)
	}
	eng8, parErr, parStates := run(8)
	if !errors.Is(parErr, boom) {
		t.Fatalf("parallel run should surface the injection, got %v", parErr)
	}
	if parStates != seqStates {
		t.Fatalf("parallel run materialized %d states before the fault, single-worker %d",
			parStates, seqStates)
	}
	// Cache hygiene: the faulted query must not have cached a verdict —
	// the warm retry on the same engine must agree with a fresh engine.
	warm, err := checkContains(context.Background(), eng8, a, b)
	if err != nil {
		t.Fatalf("warm retry after parallel lazy fault: %v", err)
	}
	want, err := checkContains(context.Background(), engine.New(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Holds != want.Holds {
		t.Fatalf("warm retry %v != fresh engine %v — faulted verdict was cached", warm.Holds, want.Holds)
	}
}
