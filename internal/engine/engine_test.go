package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
)

// canonicalSuite is the §2 example list: one formula per class of the
// hierarchy, in Figure-1 order.
var canonicalSuite = []struct {
	formula string
	class   core.Class
}{
	{"G !(c1 & c2)", core.Safety},
	{"F done", core.Guarantee},
	{"G p | F q", core.Obligation},
	{"G (req -> F ack)", core.Recurrence},
	{"F G stable", core.Persistence},
	{"G F e -> G F t", core.Reactivity},
}

// TestBatchMatchesSequential checks the central engine contract: a
// parallel Batch over the canonical examples (with duplicates) returns
// exactly the classifications the sequential core procedures produce,
// positionally, and deduplicates structurally identical requests onto a
// shared automaton.
func TestBatchMatchesSequential(t *testing.T) {
	var reqs []engine.Request
	var want []core.Classification
	for round := 0; round < 3; round++ { // duplicates exercise dedup
		for _, tc := range canonicalSuite {
			f := ltl.MustParse(tc.formula)
			reqs = append(reqs, engine.Request{Formula: f})
			c, err := core.ClassifyFormula(f, nil)
			if err != nil {
				t.Fatalf("sequential ClassifyFormula(%s): %v", tc.formula, err)
			}
			want = append(want, c)
		}
	}
	eng := engine.New(engine.WithParallelism(4))
	results := eng.Batch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Classification != want[i] {
			t.Errorf("request %d: parallel %+v != sequential %+v", i, r.Classification, want[i])
		}
		if r.Classification.Lowest() != canonicalSuite[i%len(canonicalSuite)].class {
			t.Errorf("request %d: lowest class %v, want %v",
				i, r.Classification.Lowest(), canonicalSuite[i%len(canonicalSuite)].class)
		}
	}
	// Duplicate requests must share one classified automaton.
	n := len(canonicalSuite)
	for i := 0; i < n; i++ {
		if results[i].Automaton != results[i+n].Automaton || results[i].Automaton != results[i+2*n].Automaton {
			t.Errorf("request %d: duplicates did not share the deduplicated automaton", i)
		}
	}
}

// TestCacheHitsObserved checks that repeat classifications are answered
// from the memo cache and that CacheStats counts the traffic.
func TestCacheHitsObserved(t *testing.T) {
	eng := engine.New()
	f := ltl.MustParse("G (req -> F ack)")
	first, err := eng.ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.CacheStats()
	if cold.Hits != 0 {
		t.Fatalf("cold engine reported %d hits", cold.Hits)
	}
	if cold.Misses == 0 {
		t.Fatal("cold classification recorded no cache misses")
	}
	second, err := eng.ClassifyFormula(context.Background(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached classification %+v differs from first %+v", second, first)
	}
	st := eng.CacheStats()
	if st.Hits == 0 {
		t.Fatal("repeat classification recorded no cache hits")
	}
	if st.Misses != cold.Misses {
		t.Fatalf("repeat classification recorded new misses (%d -> %d)", cold.Misses, st.Misses)
	}
	if st.Entries == 0 {
		t.Fatal("no entries resident after classification")
	}
}

// TestEngineRunsCoreProcedures pins that the engine memoizes core's
// compile and classify procedures instead of running a copy of them: a
// miss runs core's procedure exactly once, and a memo hit runs it not at
// all.
func TestEngineRunsCoreProcedures(t *testing.T) {
	ctx := context.Background()
	eng := engine.New()
	compiles := obs.NewCounter("compile.formula.calls")
	classifies := obs.NewCounter("classify.automaton.calls")
	var a *omega.Automaton
	for i, want := range []int64{1, 0} {
		before := compiles.Value()
		var err error
		if a, err = eng.CompileFormula(ctx, ltl.MustParse("G (req -> F ack)"), nil); err != nil {
			t.Fatal(err)
		}
		if got := compiles.Value() - before; got != want {
			t.Errorf("compile %d advanced compile.formula.calls by %d, want %d", i, got, want)
		}
	}
	for i, want := range []int64{1, 0} {
		before := classifies.Value()
		if _, err := eng.ClassifyAutomaton(ctx, a); err != nil {
			t.Fatal(err)
		}
		if got := classifies.Value() - before; got != want {
			t.Errorf("classification %d advanced classify.automaton.calls by %d, want %d", i, got, want)
		}
	}
}

// TestStructuralKeySharing checks that two distinct automaton values with
// the same reachable structure share one cache entry.
func TestStructuralKeySharing(t *testing.T) {
	ab := alphabet.MustLetters("ab")
	rng := rand.New(rand.NewSource(11))
	a := gen.RandomStreett(rng, ab, 12, 2, 0.3, 0.4)
	b, err := omega.ParseText(a.Text()) // same structure, different value
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	ca, err := eng.ClassifyAutomaton(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := eng.ClassifyAutomaton(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("structural twins classified differently: %+v vs %+v", ca, cb)
	}
	if st := eng.CacheStats(); st.Hits == 0 {
		t.Fatalf("structural twin did not hit the cache: %+v", st)
	}
}

// countdownCtx reports cancellation after a fixed number of Err polls —
// a deterministic way to cancel in the middle of a containment search.
type countdownCtx struct {
	context.Context
	polls int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.polls, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellationMidContainment checks that a context canceled while
// the containment search is running aborts the search with ErrCanceled
// (and keeps errors.Is(err, context.Canceled) working).
func TestCancellationMidContainment(t *testing.T) {
	ab := alphabet.MustLetters("ab")
	rng := rand.New(rand.NewSource(7))
	a := gen.RandomStreett(rng, ab, 30, 2, 0.3, 0.4)
	b := gen.RandomStreett(rng, ab, 30, 2, 0.3, 0.4)
	eng := engine.New()
	// Two polls are consumed by the entry checks of Check and of the
	// containment procedure; the next poll happens mid-search.
	ctx := &countdownCtx{Context: context.Background(), polls: 2}
	_, err := checkContains(ctx, eng, a, b)
	if err == nil {
		t.Fatal("containment completed despite mid-search cancellation")
	}
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("error %v does not match engine.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestBatchCanceledContext checks that a canceled context fails every
// pending batch item with ErrCanceled instead of blocking.
func TestBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.WithParallelism(1))
	reqs := []engine.Request{
		{Formula: ltl.MustParse("G p")},
		{Formula: ltl.MustParse("F q")},
	}
	for i, r := range eng.Batch(ctx, reqs) {
		if !errors.Is(r.Err, engine.ErrCanceled) {
			t.Errorf("item %d: err %v does not match ErrCanceled", i, r.Err)
		}
	}
}

// TestBatchInvalidRequests checks per-item error reporting for malformed
// requests (no panic, other items unaffected).
func TestBatchInvalidRequests(t *testing.T) {
	ab := alphabet.MustLetters("ab")
	eng := engine.New()
	f := ltl.MustParse("G p")
	reqs := []engine.Request{
		{}, // empty
		{Formula: f, Automaton: omega.Universal(ab)}, // both set
		{Formula: f}, // valid
	}
	results := eng.Batch(context.Background(), reqs)
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatalf("malformed requests not reported: %+v", results[:2])
	}
	if results[2].Err != nil {
		t.Fatalf("valid request failed: %v", results[2].Err)
	}
	if results[2].Classification.Lowest() != core.Safety {
		t.Fatalf("valid request misclassified: %v", results[2].Classification.Lowest())
	}
}

// TestLRUEviction checks the size bound: a cache of 2 entries classifying
// many distinct automata must evict.
func TestLRUEviction(t *testing.T) {
	ab := alphabet.MustLetters("ab")
	rng := rand.New(rand.NewSource(23))
	eng := engine.New(engine.WithCacheSize(2))
	for i := 0; i < 6; i++ {
		a := gen.RandomStreett(rng, ab, 8, 1, 0.3, 0.4)
		if _, err := eng.ClassifyAutomaton(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

// TestCacheDisabled checks that WithCacheSize(0) turns caching off
// without breaking classification.
func TestCacheDisabled(t *testing.T) {
	eng := engine.New(engine.WithCacheSize(0))
	f := ltl.MustParse("F done")
	for i := 0; i < 2; i++ {
		c, err := eng.ClassifyFormula(context.Background(), f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Lowest() != core.Guarantee {
			t.Fatalf("round %d: %v", i, c.Lowest())
		}
	}
	if st := eng.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", st)
	}
}

// TestContainsMismatchedAlphabets checks that the engine surfaces the
// alphabet-mismatch diagnostic instead of panicking or caching garbage.
func TestContainsMismatchedAlphabets(t *testing.T) {
	eng := engine.New()
	a := omega.Universal(alphabet.MustLetters("ab"))
	b := omega.Universal(alphabet.MustLetters("cd"))
	if _, err := checkContains(context.Background(), eng, a, b); err == nil {
		t.Fatal("containment over different alphabets did not error")
	}
}

// checkContains asks eng whether L(a) ⊇ L(b) through Check.
func checkContains(ctx context.Context, eng *engine.Engine, a, b *omega.Automaton) (engine.Verdict, error) {
	return eng.Check(ctx, engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
}

// TestParseErrorsAreTyped pins the typed sentinel errors at the omega
// boundary: incomplete automata report ErrNotOmegaDeterministic.
func TestParseErrorsAreTyped(t *testing.T) {
	_, err := omega.ParseText("alphabet a b\nstates 2\nstart 0\ntrans 0 a 1\ntrans 0 b 0\ntrans 1 a 0\npair R=1 P=\n")
	if !errors.Is(err, omega.ErrNotOmegaDeterministic) {
		t.Fatalf("incomplete automaton: err %v, want ErrNotOmegaDeterministic", err)
	}
}

// TestConcurrentStress hammers one shared engine from many goroutines
// with overlapping work — the -race target required by the issue. Every
// result must agree with the sequential reference.
func TestConcurrentStress(t *testing.T) {
	want := make([]core.Classification, len(canonicalSuite))
	formulas := make([]ltl.Formula, len(canonicalSuite))
	for i, tc := range canonicalSuite {
		formulas[i] = ltl.MustParse(tc.formula)
		c, err := core.ClassifyFormula(formulas[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	eng := engine.New(engine.WithParallelism(4), engine.WithCacheSize(8))
	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(formulas)
				if g%2 == 0 {
					c, err := eng.ClassifyFormula(context.Background(), formulas[i], nil)
					if err != nil {
						errs <- err
						return
					}
					if c != want[i] {
						errs <- errors.New("stress: classification mismatch")
						return
					}
				} else {
					reqs := make([]engine.Request, len(formulas))
					for j, f := range formulas {
						reqs[j] = engine.Request{Formula: f}
					}
					for j, res := range eng.Batch(context.Background(), reqs) {
						if res.Err != nil {
							errs <- res.Err
							return
						}
						if res.Classification != want[j] {
							errs <- errors.New("stress: batch classification mismatch")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
