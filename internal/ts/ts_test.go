package ts_test

import (
	"strings"
	"testing"

	"repro/internal/ts"
)

func TestBuilderStateDedup(t *testing.T) {
	b := ts.NewBuilder()
	a := b.State("s", "p")
	c := b.State("s") // same name → same state
	if a != c {
		t.Errorf("duplicate state name created two states: %d vs %d", a, c)
	}
}

func TestBuildValidatesRanges(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	b.SetInit(s)
	b.Transition("bad", ts.Unfair).Step(s, 99)
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range step should fail")
	}

	b2 := ts.NewBuilder()
	s2 := b2.State("s")
	b2.SetInit(99)
	b2.Transition("loop", ts.Unfair).Step(s2, s2)
	if _, err := b2.Build(); err == nil {
		t.Error("out-of-range init should fail")
	}
}

func TestSystemAccessors(t *testing.T) {
	b := ts.NewBuilder()
	s0 := b.State("start", "p", "q")
	s1 := b.State("other")
	tr := b.Transition("go", ts.Weak)
	tr.Step(s0, s1).Step(s1, s0)
	b.SetInit(s0)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 2 {
		t.Errorf("NumStates = %d", sys.NumStates())
	}
	if sys.StateName(s0) != "start" {
		t.Errorf("StateName = %q", sys.StateName(s0))
	}
	if sys.StateIndex("other") != s1 || sys.StateIndex("missing") != -1 {
		t.Error("StateIndex broken")
	}
	if !sys.Valuation(s0).Holds("p") || sys.Valuation(s1).Holds("p") {
		t.Error("valuations broken")
	}
	props := sys.Props()
	if len(props) != 2 || props[0] != "p" || props[1] != "q" {
		t.Errorf("Props = %v", props)
	}
	if got := sys.Symbol(s0, []string{"p"}); got != "{p}" {
		t.Errorf("Symbol = %q", got)
	}
	if got := sys.Symbol(s0, []string{"r"}); got != "{}" {
		t.Errorf("Symbol with foreign prop = %q", got)
	}
	succ := sys.AllSuccessors(s0)
	if len(succ) != 1 || succ[0] != s1 {
		t.Errorf("AllSuccessors = %v", succ)
	}
	reach := sys.ReachableStates()
	if len(reach) != 2 {
		t.Errorf("ReachableStates = %v", reach)
	}
	if len(sys.Transitions()) != 1 {
		t.Error("Transitions lost")
	}
	if !sys.Transitions()[0].Enabled(s0) {
		t.Error("transition should be enabled at s0")
	}
}

func TestPetersonShape(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 18 {
		t.Errorf("Peterson has %d states, want 18", sys.NumStates())
	}
	// Exactly one state should be both-critical per turn value, and no
	// reachable state may satisfy c1 ∧ c2 (checked in mc tests; here just
	// structural sanity).
	reach := sys.ReachableStates()
	if len(reach) == 0 || len(reach) > 18 {
		t.Errorf("reachable: %d", len(reach))
	}
	for _, s := range reach {
		v := sys.Valuation(s)
		if v.Holds("c1") && v.Holds("c2") {
			t.Errorf("reachable state %q violates mutual exclusion", sys.StateName(s))
		}
	}
}

func TestSemaphoreShape(t *testing.T) {
	for _, fair := range []ts.Fairness{ts.Weak, ts.Strong} {
		sys, err := ts.Semaphore(fair)
		if err != nil {
			t.Fatal(err)
		}
		// Invariant baked into the encoding: sem free ⇔ nobody critical.
		for s := 0; s < sys.NumStates(); s++ {
			v := sys.Valuation(s)
			somebodyIn := v.Holds("c1") || v.Holds("c2")
			if v.Holds("sem") == somebodyIn {
				t.Errorf("state %q breaks the semaphore invariant", sys.StateName(s))
			}
		}
	}
}

func TestTrivialMutexShape(t *testing.T) {
	sys, err := ts.TrivialMutex()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sys.NumStates(); s++ {
		if sys.Valuation(s).Holds("c1") || sys.Valuation(s).Holds("c2") {
			t.Error("trivial mutex must never be critical")
		}
	}
}

func TestTransitionSuccessorsCopy(t *testing.T) {
	b := ts.NewBuilder()
	s := b.State("s")
	tr := b.Transition("t", ts.Unfair)
	tr.Step(s, s)
	succ := tr.Successors(s)
	succ[0] = 99
	if tr.Successors(s)[0] != s {
		t.Error("Successors must return a copy")
	}
}

// TestStepAfterBuildDoesNotReachSystem: a built System is immutable. A
// step added to the builder's transition afterwards reaches only a later
// Build, and Step on a built system's own transition panics.
func TestStepAfterBuildDoesNotReachSystem(t *testing.T) {
	b := ts.NewBuilder()
	s0, s1 := b.State("s0"), b.State("s1")
	b.SetInit(s0)
	tr := b.Transition("go", ts.Weak)
	tr.Step(s0, s1)
	b.AddIdle()
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr.Step(s1, s0)
	built := sys.Transitions()[0]
	if got := built.Successors(s1); len(got) != 0 {
		t.Errorf("builder Step after Build changed the built system: successors of s1 = %v", got)
	}
	if built.Enabled(s1) {
		t.Error("builder Step after Build enabled a built transition")
	}
	if got := sys.AllSuccessors(s1); len(got) != 1 || got[0] != s1 {
		t.Errorf("AllSuccessors(s1) = %v, want [s1]", got)
	}
	again, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Transitions()[0].Successors(s1); len(got) != 1 || got[0] != s0 {
		t.Errorf("a later Build lost the step: successors of s1 = %v", got)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "built System") {
			t.Errorf("Step on a built transition: recovered %q, want a panic naming the built System", msg)
		}
		if got := built.Successors(s1); len(got) != 0 {
			t.Errorf("Step on a built transition changed it: successors of s1 = %v", got)
		}
	}()
	built.Step(s1, s0)
}

// TestSharedSuccessorsCannotBeGrown: the frozen table hands out slices
// capped at their row, so an append by a careless caller copies instead
// of overwriting the next state's successors.
func TestSharedSuccessorsCannotBeGrown(t *testing.T) {
	b := ts.NewBuilder()
	s0, s1 := b.State("s0"), b.State("s1")
	b.SetInit(s0)
	b.Transition("go", ts.Unfair).Step(s0, s1).Step(s1, s0)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Transitions()[0]
	_ = append(tr.SuccessorsShared(s0), s0)
	_ = append(sys.AllSuccessors(s0), s0)
	if got := tr.Successors(s1); len(got) != 1 || got[0] != s0 {
		t.Errorf("successors of s1 = %v after an append to s0's row", got)
	}
	if got := sys.AllSuccessors(s1); len(got) != 1 || got[0] != s0 {
		t.Errorf("AllSuccessors(s1) = %v after an append to s0's row", got)
	}
	if tr.SuccessorsShared(-1) != nil || tr.SuccessorsShared(2) != nil || sys.AllSuccessors(7) != nil {
		t.Error("out-of-range states must have no successors")
	}
}
