package plan_test

import (
	"context"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/lang"
	"repro/internal/omega"
	"repro/internal/plan"
)

var ab = alphabet.MustLetters("ab")

// prop compiles a finitary regex fixture over {a,b}.
func prop(t testing.TB, expr string) *lang.Property {
	t.Helper()
	p, err := lang.FromRegex(expr, ab)
	if err != nil {
		t.Fatalf("regex %q: %v", expr, err)
	}
	return p
}

// TestProbeFigure1Boundaries probes one canonical automaton per
// hierarchy class — the paper's Figure-1 boundary constructions A(Φ),
// E(Φ), R(Φ), P(Φ) and the simple-obligation product — and checks the
// class evidence each probe reports and the tier it plans: only the
// safety and guarantee constructions carry reachability evidence.
func TestProbeFigure1Boundaries(t *testing.T) {
	phi := prop(t, "a*")
	psi := prop(t, ".*b")
	// a^ω ∪ "some bb": neither closed nor open.
	obAut, err := lang.SimpleObligation(phi, prop(t, ".*bb"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		aut               *omega.Automaton
		safety, guarantee bool
		want              plan.Tier
	}{
		{"A(phi)", lang.A(phi), true, false, plan.TierSafety},
		{"E(psi)", lang.E(psi), false, true, plan.TierGuarantee},
		{"R(psi)", lang.R(psi), false, false, plan.TierStreett},
		{"P(psi)", lang.P(psi), false, false, plan.TierStreett},
		{"SimpleObligation", obAut, false, false, plan.TierStreett},
	} {
		p, err := plan.ProbeAutomaton(context.Background(), tc.aut)
		if err != nil {
			t.Fatal(err)
		}
		if p.Safety != tc.safety || p.Guarantee != tc.guarantee {
			t.Errorf("%s probe %+v: want safety=%v guarantee=%v", tc.name, p, tc.safety, tc.guarantee)
		}
		if d := plan.DecideOperand(p); d.Tier != tc.want {
			t.Errorf("%s plans %v, want %v", tc.name, d.Tier, tc.want)
		}
	}
}

// TestDecideContainsPrecedence checks the tier choice is cheapest-first
// and uses exactly the operands each procedure needs: safety needs only
// the container; guarantee needs both.
func TestDecideContainsPrecedence(t *testing.T) {
	cases := []struct {
		name   string
		pa, pb plan.Probe
		want   plan.Tier
	}{
		{"safety container alone", plan.Probe{Safety: true}, plan.Probe{}, plan.TierSafety},
		{"safety beats guarantee", plan.Probe{Safety: true, Guarantee: true}, plan.Probe{Guarantee: true}, plan.TierSafety},
		{"guarantee needs both", plan.Probe{Guarantee: true}, plan.Probe{Guarantee: true}, plan.TierGuarantee},
		{"guarantee one-sided is streett", plan.Probe{Guarantee: true}, plan.Probe{}, plan.TierStreett},
		{"safety contained alone is streett", plan.Probe{}, plan.Probe{Safety: true}, plan.TierStreett},
		{"no evidence", plan.Probe{}, plan.Probe{}, plan.TierStreett},
	}
	for _, tc := range cases {
		d := plan.DecideContains(tc.pa, tc.pb)
		if d.Tier != tc.want {
			t.Errorf("%s: tier %v, want %v", tc.name, d.Tier, tc.want)
		}
		if d.Reason == "" {
			t.Errorf("%s: decision carries no reason", tc.name)
		}
	}
}

// TestDecideEmptinessIsStreett: emptiness runs the Streett search
// whatever the probe says.
func TestDecideEmptinessIsStreett(t *testing.T) {
	for _, p := range []plan.Probe{{}, {Safety: true}, {Guarantee: true}, {Safety: true, Guarantee: true}} {
		if d := plan.DecideEmptiness(p); d.Tier != plan.TierStreett || d.Reason == "" {
			t.Errorf("DecideEmptiness(%+v) = %+v, want the Streett tier with a reason", p, d)
		}
	}
}

// TestTierStrings pins the tier names: they are part of the -explain
// output, the plan.path metric labels and the temporald response. The
// retired tiers keep their names for store records that carry them.
func TestTierStrings(t *testing.T) {
	for tier, want := range map[plan.Tier]string{
		plan.TierStreett:     "streett",
		plan.TierSafety:      "safety",
		plan.TierGuarantee:   "guarantee",
		plan.TierObligation:  "obligation",
		plan.TierRecurrence:  "recurrence",
		plan.TierPersistence: "persistence",
	} {
		if tier.String() != want {
			t.Errorf("tier %d String() = %q, want %q", tier, tier.String(), want)
		}
		if tier.Procedure() == "" || tier.CostNote() == "" {
			t.Errorf("tier %v missing Procedure/CostNote text", tier)
		}
	}
}
