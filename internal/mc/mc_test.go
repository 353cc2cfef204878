package mc_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/ts"
)

func verify(t *testing.T, sys *ts.System, fstr string) mc.Result {
	t.Helper()
	res, err := mc.Verify(sys, ltl.MustParse(fstr))
	if err != nil {
		t.Fatalf("Verify(%s): %v", fstr, err)
	}
	return res
}

func TestPetersonMutualExclusion(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	if res := verify(t, sys, "G !(c1 & c2)"); !res.Holds {
		pre, loop := res.Counterexample.Names(sys)
		t.Fatalf("mutual exclusion violated: %v (%v)^ω", pre, loop)
	}
}

func TestPetersonAccessibility(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"G (w1 -> F c1)", "G (w2 -> F c2)"} {
		if res := verify(t, sys, f); !res.Holds {
			pre, loop := res.Counterexample.Names(sys)
			t.Errorf("%s violated: %v (%v)^ω", f, pre, loop)
		}
	}
}

func TestPetersonBoundedOvertakingFails(t *testing.T) {
	// Peterson does NOT guarantee that process 1 never waits — the
	// response property holds but □¬w1 must fail, with a counterexample.
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	res := verify(t, sys, "G !w1")
	if res.Holds {
		t.Fatal("G !w1 cannot hold — process 1 may request")
	}
	if res.Counterexample == nil {
		t.Fatal("expected a counterexample")
	}
}

func TestTrivialMutexUnderspecification(t *testing.T) {
	// The introduction's trap: the do-nothing system satisfies mutual
	// exclusion but not accessibility.
	sys, err := ts.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	if res := verify(t, sys, "G !(c1 & c2)"); !res.Holds {
		t.Error("trivial system should satisfy mutual exclusion")
	}
	res := verify(t, sys, "G (w1 -> F c1)")
	if res.Holds {
		t.Error("trivial system must violate accessibility")
	}
}

func TestSemaphoreFairnessSeparation(t *testing.T) {
	// Weak fairness on acquire: starvation possible.
	weak, err := ts.Semaphore(ts.Weak)
	if err != nil {
		t.Fatal(err)
	}
	res := verify(t, weak, "G (w1 -> F c1)")
	if res.Holds {
		t.Error("semaphore under weak fairness should admit starvation of process 1")
	} else {
		// The starvation scenario must keep process 1 waiting while
		// process 2 cycles.
		pre, loop := res.Counterexample.Names(weak)
		t.Logf("starvation witness: %v (%v)^ω", pre, loop)
	}

	// Strong fairness on acquire: accessibility holds.
	strong, err := ts.Semaphore(ts.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if res := verify(t, strong, "G (w1 -> F c1)"); !res.Holds {
		pre, loop := res.Counterexample.Names(strong)
		t.Errorf("semaphore under strong fairness must guarantee access: %v (%v)^ω", pre, loop)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
		sys, err := ts.Semaphore(fair)
		if err != nil {
			t.Fatal(err)
		}
		if res := verify(t, sys, "G !(c1 & c2)"); !res.Holds {
			t.Errorf("fairness %v: mutual exclusion violated", fair)
		}
	}
}

func TestWeakFairnessFormulaOnSystem(t *testing.T) {
	// The recurrence formulation of weak fairness (§4): for Peterson,
	// □◇(¬w1 ∨ c1) — infinitely often not-waiting-or-in-CS — holds
	// because accessibility holds.
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	if res := verify(t, sys, "G F (!w1 | c1)"); !res.Holds {
		t.Error("G F (!w1 | c1) should hold for Peterson")
	}
}

func TestCounterexampleIsFairComputation(t *testing.T) {
	// The counterexample trace must be a real computation: consecutive
	// states connected by some transition.
	sys, err := ts.Semaphore(ts.Weak)
	if err != nil {
		t.Fatal(err)
	}
	res := verify(t, sys, "G (w1 -> F c1)")
	if res.Holds || res.Counterexample == nil {
		t.Fatal("expected counterexample")
	}
	tr := res.Counterexample
	seq := append(append([]int{}, tr.Prefix...), tr.Loop...)
	seq = append(seq, tr.Loop[0])
	for i := 0; i+1 < len(seq); i++ {
		connected := false
		for _, next := range sys.AllSuccessors(seq[i]) {
			if next == seq[i+1] {
				connected = true
				break
			}
		}
		if !connected {
			t.Fatalf("counterexample step %d: %q -/-> %q",
				i, sys.StateName(seq[i]), sys.StateName(seq[i+1]))
		}
	}
}

func TestFairComputation(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := mc.FairComputation(sys)
	if !ok {
		t.Fatal("Peterson should have a fair computation")
	}
	if len(tr.Loop) == 0 {
		t.Fatal("fair computation needs a loop")
	}
}

func TestInvariant(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := mc.Invariant(sys, ltl.MustParse("!(c1 & c2)"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mutual exclusion invariant should hold")
	}
	ok, path, err := mc.Invariant(sys, ltl.MustParse("!w1"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("!w1 is not invariant")
	}
	if len(path) == 0 {
		t.Error("violation should come with a path")
	}
	if _, _, err := mc.Invariant(sys, ltl.MustParse("G w1")); err == nil {
		t.Error("temporal formula should be rejected as invariant")
	}
}

// TestInvariantOverManyPropositions: the valuation memo tells apart states
// that differ only in the 65th proposition of χ, so the single state where
// χ fails is still found, with its path.
func TestInvariantOverManyPropositions(t *testing.T) {
	const n = 65
	b := ts.NewBuilder()
	var disj []string
	prev := -1
	for i := 0; i <= n; i++ {
		var props []string
		if i < n {
			props = []string{fmt.Sprintf("p%d", i)}
			disj = append(disj, props[0])
		}
		s := b.State(fmt.Sprintf("s%d", i), props...)
		if prev >= 0 {
			b.Transition(fmt.Sprintf("t%d", i), ts.Unfair).Step(prev, s)
		} else {
			b.SetInit(s)
		}
		prev = s
	}
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ok, path, err := mc.Invariant(sys, ltl.MustParse(strings.Join(disj, " | ")))
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(path) != n+1 || path[n] != n {
		t.Errorf("Invariant over %d propositions = %v, path %v; want a violation at s%d after %d steps", n, ok, path, n, n)
	}
}

func TestCheckInductive(t *testing.T) {
	sys, err := ts.Semaphore(ts.Weak)
	if err != nil {
		t.Fatal(err)
	}
	// "sem free xor someone in CS" is the natural inductive invariant:
	// sem <-> !(c1 | c2).
	res, err := mc.CheckInductive(sys, ltl.MustParse("sem <-> !(c1 | c2)"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inductive {
		t.Errorf("semaphore invariant should be inductive: %+v", res)
	}
	// Mutual exclusion alone is also preserved in this encoding (the
	// reachable-state encoding bakes the semaphore in), but a plainly
	// false candidate is not.
	res, err = mc.CheckInductive(sys, ltl.MustParse("n1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inductive {
		t.Error("n1 cannot be inductive")
	}
	if _, err := mc.CheckInductive(sys, ltl.MustParse("F n1")); err == nil {
		t.Error("temporal candidate should be rejected")
	}
}

// terminatingProgram is a linear counter: s3 → s2 → s1 → goal, with an
// unfair idle loop only at the goal.
func terminatingProgram(t *testing.T) *ts.System {
	t.Helper()
	b := ts.NewBuilder()
	s3 := b.State("s3", "start")
	s2 := b.State("s2")
	s1 := b.State("s1")
	goal := b.State("goal", "done")
	step := b.Transition("step", ts.Weak)
	step.Step(s3, s2).Step(s2, s1).Step(s1, goal)
	idle := b.Transition("rest", ts.Unfair)
	idle.Step(goal, goal)
	b.SetInit(s3)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestExtractRanking(t *testing.T) {
	sys := terminatingProgram(t)
	r, err := mc.ExtractRanking(sys, ltl.MustParse("start"), ltl.MustParse("done"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if r.Rank[sys.StateIndex("s3")] != 2 || r.Rank[sys.StateIndex("s1")] != 0 {
		t.Errorf("ranks: %v", r.Rank)
	}
	// And the property itself model-checks.
	if res := verify(t, sys, "G (start -> F done)"); !res.Holds {
		t.Error("termination should hold")
	}

	// A cyclic pending region needs fairness: rankings must be refused.
	peterson, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExtractRanking(peterson, ltl.MustParse("w1"), ltl.MustParse("c1")); err == nil {
		t.Error("Peterson's accessibility needs fairness; plain ranking must fail")
	}
}

func TestStateHolds(t *testing.T) {
	sys := terminatingProgram(t)
	ok, err := mc.StateHolds(sys, sys.StateIndex("goal"), ltl.MustParse("done"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("done should hold at goal")
	}
	if _, err := mc.StateHolds(sys, 0, ltl.MustParse("X done")); err == nil {
		t.Error("temporal formula should be rejected")
	}
}

func TestBuilderValidation(t *testing.T) {
	b := ts.NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("empty system should fail")
	}
	s := b.State("s")
	if _, err := b.Build(); err == nil {
		t.Error("missing init should fail")
	}
	b.SetInit(s)
	if _, err := b.Build(); err == nil {
		t.Error("deadlocked state should fail")
	}
	b.AddIdle()
	if _, err := b.Build(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestFairnessString(t *testing.T) {
	for _, f := range []ts.Fairness{ts.Unfair, ts.Weak, ts.Strong} {
		if f.String() == "" {
			t.Error("empty fairness name")
		}
	}
}
