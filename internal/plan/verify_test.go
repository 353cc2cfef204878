package plan_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/ltl"
	"repro/internal/plan"
	"repro/internal/ts"
)

// TestDecideVerify pins the invariant fast-path trigger: □χ with a
// state formula χ, and nothing else.
func TestDecideVerify(t *testing.T) {
	for f, want := range map[string]plan.Tier{
		"G !(c1 & c2)":   plan.TierSafety,
		"G (a | !b)":     plan.TierSafety,
		"G (w1 -> F c1)": plan.TierStreett, // response, not an invariant
		"F done":         plan.TierStreett,
		"G F p":          plan.TierStreett,
		"(G a) & (G b)":  plan.TierStreett, // invariant-equivalent, but not in □χ form
	} {
		d := plan.DecideVerify(ltl.MustParse(f))
		if d.Tier != want {
			t.Errorf("DecideVerify(%s) = %v, want %v", f, d.Tier, want)
		}
	}
}

// TestVerifyInvariantFastPath diffs the planned verdicts on Peterson's
// algorithm against the full model checker: the invariant path must
// agree on both a holding and a violated invariant, and the violated
// case must still carry a fair-lasso counterexample.
func TestVerifyInvariantFastPath(t *testing.T) {
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}

	res, out, err := plan.Verify(context.Background(), sys, ltl.MustParse("G !(c1 & c2)"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds || !out.Holds {
		t.Fatalf("mutual exclusion should hold (res %v, out %v)", res.Holds, out.Holds)
	}
	if out.Tier != plan.TierSafety || out.Fallback {
		t.Fatalf("invariant should run the safety tier without fallback: %+v", out)
	}

	res, out, err = plan.Verify(context.Background(), sys, ltl.MustParse("G !w1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("G !w1 cannot hold — process 1 may request")
	}
	if out.Tier != plan.TierSafety {
		t.Fatalf("violated invariant keeps safety provenance, got %v", out.Tier)
	}
	if res.Counterexample == nil {
		t.Fatal("violated invariant must carry a counterexample from the full checker")
	}

	// Non-invariant queries pass through to the general path.
	res, out, err = plan.Verify(context.Background(), sys, ltl.MustParse("G (w1 -> F c1)"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("accessibility should hold under fairness")
	}
	if out.Tier != plan.TierStreett {
		t.Fatalf("response property should verify on the general path, got %v", out.Tier)
	}
}

// TestVerifyFallbackUnderPlanFault: a fault at the invariant entry falls
// back to the full checker with the same verdict.
func TestVerifyFallbackUnderPlanFault(t *testing.T) {
	defer fault.Reset()
	sys, err := ts.Peterson()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected invariant fault")
	cleanup := fault.InjectError(fault.SitePlan, 1, boom)
	res, out, err := plan.Verify(context.Background(), sys, ltl.MustParse("G !(c1 & c2)"))
	cleanup()
	if err != nil {
		t.Fatalf("fault should fall back, not error: %v", err)
	}
	if !res.Holds {
		t.Fatal("fallback verdict must match: mutual exclusion holds")
	}
	if !out.Fallback || out.Tier != plan.TierStreett || out.Planned != plan.TierSafety {
		t.Fatalf("fallback provenance wrong: %+v", out)
	}
}

// TestDecideOperand pins the per-operand tier used by speccheck
// -explain.
func TestDecideOperand(t *testing.T) {
	for _, tc := range []struct {
		p    plan.Probe
		want plan.Tier
	}{
		{plan.Probe{Safety: true, Guarantee: true}, plan.TierSafety},
		{plan.Probe{Guarantee: true}, plan.TierGuarantee},
		{plan.Probe{}, plan.TierStreett},
	} {
		if d := plan.DecideOperand(tc.p); d.Tier != tc.want {
			t.Errorf("DecideOperand(%+v) = %v, want %v", tc.p, d.Tier, tc.want)
		}
	}
}
