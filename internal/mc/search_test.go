package mc

// White-box tests of the fair-cycle search: its governance (the step
// budget and cancellation reach the refinement) and a failed loop
// extraction, forced through the extractor seam, coming back as an error
// rather than a verdict.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/autkern"
	"repro/internal/budget"
	"repro/internal/ltl"
	"repro/internal/ts"
)

func cacheCoherence(t *testing.T) *ts.System {
	t.Helper()
	sys, err := ts.CacheCoherence(5)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFailedExtractionIsAnError: a fair accepting set whose lasso cannot
// be extracted must not turn into "the property holds".
func TestFailedExtractionIsAnError(t *testing.T) {
	defer func(orig func(*autkern.Streett, []int, []bool, []int, []int) ([]autkern.Edge, []autkern.Edge, error)) {
		lasso = orig
	}(lasso)
	lasso = func(*autkern.Streett, []int, []bool, []int, []int) ([]autkern.Edge, []autkern.Edge, error) {
		return nil, nil, autkern.ErrNoLasso
	}
	sys, err := ts.RingMutex(6, ts.Strong)
	if err != nil {
		t.Fatal(err)
	}
	res, err := VerifyCtx(context.Background(), sys, ltl.MustParse("F c0"))
	if !errors.Is(err, autkern.ErrNoLasso) {
		t.Fatalf("VerifyCtx = %+v, %v; want ErrNoLasso", res, err)
	}
}

// TestVerifyChargesSearchSteps: the fair-cycle search charges the request
// budget, one step per decomposition and per component examined, so a
// step cap that the negation's compile fits under but the search's
// components do not aborts with ErrBudgetExceeded.
func TestVerifyChargesSearchSteps(t *testing.T) {
	sys := cacheCoherence(t)
	f := ltl.MustParse("G (wr0 -> F m0)")
	compile := budget.New(0, 1<<40)
	if _, err := negationAutomaton(budget.With(context.Background(), compile), f, ltl.Props(f)); err != nil {
		t.Fatal(err)
	}
	total := budget.New(0, 1<<40)
	res, err := VerifyCtx(budget.With(context.Background(), total), sys, f)
	if err != nil || !res.Holds {
		t.Fatalf("uncapped VerifyCtx = %+v, %v", res, err)
	}
	search := total.Steps() - compile.Steps()
	if search < 2 {
		t.Fatalf("the search charged %d steps", search)
	}
	capped := budget.With(context.Background(), budget.New(0, compile.Steps()+search/2))
	if res, err := VerifyCtx(capped, sys, f); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("capped VerifyCtx = %+v, %v; want ErrBudgetExceeded", res, err)
	}
}

// decompositionPolls counts a context's Err polls, noting those made by a
// decomposition pass, and reports cancellation from poll trip onwards.
type decompositionPolls struct {
	context.Context
	polls, trip int
	inPass      []int
}

func (c *decompositionPolls) Err() error {
	c.polls++
	if c.trip > 0 && c.polls >= c.trip {
		return context.Canceled
	}
	// Err ← budget.Poll ← the poller.
	pcs := make([]uintptr, 2)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	frames.Next()
	switch f, _ := frames.Next(); f.Function {
	case "repro/internal/autkern.SCCsFuncCtx", "repro/internal/autkern.sccs":
		c.inPass = append(c.inPass, c.polls)
	}
	return nil
}

// TestVerifyCanceledDuringLastDecomposition: a context that trips during
// the search's last decomposition pass aborts the check with
// context.Canceled instead of letting the pass finish.
func TestVerifyCanceledDuringLastDecomposition(t *testing.T) {
	sys := cacheCoherence(t)
	f := ltl.MustParse("G (wr0 -> F m0)")
	count := &decompositionPolls{Context: context.Background()}
	if _, err := VerifyCtx(count, sys, f); err != nil {
		t.Fatal(err)
	}
	if len(count.inPass) == 0 {
		t.Fatal("no decomposition polled the context")
	}
	trip := &decompositionPolls{Context: context.Background(), trip: count.inPass[len(count.inPass)-1]}
	if res, err := VerifyCtx(trip, sys, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyCtx = %+v, %v; want context.Canceled", res, err)
	}
}
