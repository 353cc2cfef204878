package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/ts"
)

var ab = alphabet.MustLetters("ab")

// TestCheckContains runs the unified API end to end on a safety pair:
// the verdict must come from the safety tier, and the warm repeat from
// the memo cache with identical provenance.
func TestCheckContains(t *testing.T) {
	eng := engine.New()
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatalf("A(a*) ⊇ A(a+) must hold, got witness %v", v.Witness)
	}
	if v.Tier != plan.TierSafety || v.Fallback || v.Cached {
		t.Fatalf("cold safety containment verdict has wrong provenance: %+v", v)
	}
	warm, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Holds != v.Holds || warm.Tier != v.Tier {
		t.Fatalf("warm verdict should be a cache hit with the same provenance: %+v", warm)
	}
}

// TestCheckContainsFormulaOperands: operands given as formulas compile
// through the engine (sharing the compile cache) and then plan.
func TestCheckContainsFormulaOperands(t *testing.T) {
	eng := engine.New()
	v, err := eng.Check(context.Background(), engine.CheckRequest{
		Kind:         engine.CheckContains,
		LeftFormula:  ltl.MustParse("G p"),
		RightFormula: ltl.MustParse("G (p & q)"),
		Props:        []string{"p", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatalf("G (p&q) ⊆ G p must hold, got witness %v", v.Witness)
	}
	if v.Tier != plan.TierSafety {
		t.Fatalf("invariant containment should plan safety, got %v", v.Tier)
	}
}

// TestCheckEquivalent: both directions run; a false verdict carries a
// separating word.
func TestCheckEquivalent(t *testing.T) {
	eng := engine.New()
	a := lang.R(lang.MustRegex(".*b", ab))
	b := lang.R(lang.MustRegex(".*b.*", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEquivalent, Left: a, Right: a})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatal("automaton must be equivalent to itself")
	}
	v, err = eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEquivalent, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds {
		t.Fatal("R(.*b) and R(.*b.*) differ (a^ω separates them)")
	}
	if v.Witness.IsZero() {
		t.Fatal("false equivalence verdict must carry a separating lasso")
	}

	// A true equivalence runs both containment directions, and its cost
	// is the sum of the two.
	ctx := context.Background()
	props := []string{"p", "q"}
	l, err := eng.CompileFormula(ctx, ltl.MustParse("G p"), props)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.CompileFormula(ctx, ltl.MustParse("G p & G (q | !q)"), props)
	if err != nil {
		t.Fatal(err)
	}
	var want plan.Cost
	for _, dir := range [][2]*omega.Automaton{{l, r}, {r, l}} {
		pa, err := plan.ProbeAutomaton(ctx, dir[0])
		if err != nil {
			t.Fatal(err)
		}
		pb, err := plan.ProbeAutomaton(ctx, dir[1])
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.ContainsWith(ctx, plan.DecideContains(pa, pb), dir[0], dir[1])
		if err != nil {
			t.Fatal(err)
		}
		want.ProductStates += out.Cost.ProductStates
		want.SCCPasses += out.Cost.SCCPasses
	}
	v, err = engine.New().Check(ctx, engine.CheckRequest{Kind: engine.CheckEquivalent, Left: l, Right: r})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Fatalf("G p and G p & G (q | !q) are equivalent, got witness %v", v.Witness)
	}
	if v.Cost != want {
		t.Fatalf("equivalence cost %+v, want the two directions' sum %+v", v.Cost, want)
	}
}

// TestCheckEmptiness: emptiness through the engine runs the Streett
// search without probing the operand, and is cached on repeat.
func TestCheckEmptiness(t *testing.T) {
	c := &obs.Collector{}
	obs.Attach(c)
	defer obs.Detach()
	eng := engine.New()
	a := lang.E(lang.MustRegex("a.*", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds {
		t.Fatal("E(a.*) is non-empty")
	}
	if ok, err := a.Accepts(v.Witness); err != nil || !ok {
		t.Fatalf("witness %v not accepted (err %v)", v.Witness, err)
	}
	if v.Tier != plan.TierStreett || v.Planned != plan.TierStreett {
		t.Fatalf("emptiness should run the Streett search, got tier %v planned %v", v.Tier, v.Planned)
	}
	if c.Find("omega.emptiness") == nil || c.Find("plan.probe") != nil {
		t.Fatalf("emptiness should run omega.emptiness and no plan.probe; spans:\n%s", c.Tree())
	}
	warm, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat emptiness should hit the memo cache")
	}
}

// TestCheckEmptinessReturnsSearchFault: a fault inside the Streett
// emptiness search comes back as the error it raised, not as a panic
// the recovery boundary turns into an *InternalError, and nothing is
// cached.
func TestCheckEmptinessReturnsSearchFault(t *testing.T) {
	defer fault.Reset()
	eng := engine.New()
	a := lang.R(lang.MustRegex(".*b", ab))
	req := engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a}
	boom := errors.New("injected emptiness fault")
	cleanup := fault.InjectError(fault.SiteOmegaEmptiness, 1, boom)
	_, err := eng.Check(context.Background(), req)
	cleanup()
	var internal *engine.InternalError
	if !errors.Is(err, boom) || errors.As(err, &internal) {
		t.Fatalf("got %v (%T), want the injected error itself", err, err)
	}
	v, err := eng.Check(context.Background(), req)
	if err != nil || v.Cached || v.Holds {
		t.Fatalf("retry after the fault: %+v, %v; want a fresh non-empty verdict", v, err)
	}
}

// TestCheckEmptinessUnderStepBudget: the Streett emptiness search
// charges the request's step budget, so a 1-step budget aborts it.
func TestCheckEmptinessUnderStepBudget(t *testing.T) {
	ctx := budget.With(context.Background(), budget.New(0, 1))
	a := lang.R(lang.MustRegex(".*b", ab))
	_, err := engine.New().Check(ctx, engine.CheckRequest{Kind: engine.CheckEmptiness, Left: a})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("1-step emptiness should exceed its budget, got %v", err)
	}
}

// TestCheckVerify: the unified API model-checks a system, reporting the
// invariant fast path for □χ and a counterexample on violation.
func TestCheckVerify(t *testing.T) {
	eng := engine.New()
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Check(context.Background(), engine.CheckRequest{
		Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G !(c1 & c2)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds || v.Tier != plan.TierSafety {
		t.Fatalf("mutual exclusion should hold on the invariant tier: %+v", v)
	}
	v, err = eng.Check(context.Background(), engine.CheckRequest{
		Kind: engine.CheckVerify, System: sys, Formula: ltl.MustParse("G !w1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds || v.Counterexample == nil {
		t.Fatalf("violated invariant should carry a counterexample: %+v", v)
	}
}

// TestCheckFallbackNotCached is the planner cache-hygiene rule: a
// verdict obtained via fallback (fault at the specialized entry) is
// correct and marked, but must NOT be memoized — the retry without the
// fault runs the fast path again and only then populates the cache.
func TestCheckFallbackNotCached(t *testing.T) {
	defer fault.Reset()
	eng := engine.New()
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	boom := errors.New("injected specialized fault")
	cleanup := fault.InjectError(fault.SitePlan, 1, boom)
	faulted, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	cleanup()
	if err != nil {
		t.Fatalf("fault should fall back, not error: %v", err)
	}
	if !faulted.Fallback || !faulted.Holds {
		t.Fatalf("faulted run should report a correct fallback verdict: %+v", faulted)
	}
	retry, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached {
		t.Fatal("fallback verdict was cached — hygiene rule violated")
	}
	if retry.Fallback || retry.Tier != plan.TierSafety {
		t.Fatalf("retry should run the fast path cleanly: %+v", retry)
	}
	third, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("clean verdict should now be memoized")
	}
}

// TestCheckBudgetSpendReported: under engine budgets the verdict
// reports positive spend; governance aborts surface the typed sentinel.
func TestCheckBudgetSpendReported(t *testing.T) {
	eng := engine.New(engine.WithStateBudget(10_000), engine.WithStepBudget(640_000))
	a := lang.A(lang.MustRegex("a*", ab))
	b := lang.A(lang.MustRegex("a^+", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	if v.BudgetStates <= 0 && v.BudgetSteps <= 0 {
		t.Fatalf("budgeted check should report spend, got %+v", v)
	}
}

// TestCheckContainsMatchesOracle: the planned Check agrees with the
// unplanned eager Streett containment oracle.
func TestCheckContainsMatchesOracle(t *testing.T) {
	eng := engine.New()
	a := lang.R(lang.MustRegex(".*b", ab))
	b := lang.P(lang.MustRegex(".*b", ab))
	v, err := eng.Check(context.Background(), engine.CheckRequest{Kind: engine.CheckContains, Left: a, Right: b})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := a.ContainsEager(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds != ok {
		t.Fatalf("Check verdict %v != eager oracle %v", v.Holds, ok)
	}
}
