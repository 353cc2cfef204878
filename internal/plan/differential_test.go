package plan_test

// Differential suite for the query planner: planned containment is
// diffed against the lazy and eager Streett oracles, and planned
// emptiness against a brute-force lasso corpus, over (1) purpose-built
// families, one per hierarchy class, and (2) random Streett corpora.
// The fallback discipline is proved under fault injection at the
// specialized entry.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/omega"
	"repro/internal/plan"
	"repro/internal/word"
)

// diffN scales the random corpora.
func diffN(t *testing.T) int {
	if testing.Short() {
		return 150
	}
	return 1500
}

// family is a set of automata of one hierarchy class, and the tier the
// planner runs containments within it on: the reachability tier for
// safety and guarantee, the Streett path for every other class.
type family struct {
	class string
	tier  plan.Tier
	autos []*omega.Automaton
}

// classFamilies builds one family per hierarchy class: the paper's
// Figure-1 constructions A, E, R, P and the simple obligation over a
// fixed set of finitary properties.
func classFamilies(t *testing.T) []family {
	t.Helper()
	exprs := []string{"a.*", ".*b", "a*", ".*ba*", "b^+", "(ab)*a", ".*a.*"}
	props := make([]*lang.Property, len(exprs))
	for i, e := range exprs {
		props[i] = prop(t, e)
	}
	fams := []family{
		{class: "safety", tier: plan.TierSafety},
		{class: "guarantee", tier: plan.TierGuarantee},
		{class: "recurrence", tier: plan.TierStreett},
		{class: "persistence", tier: plan.TierStreett},
		{class: "obligation", tier: plan.TierStreett},
	}
	for _, p := range props {
		fams[0].autos = append(fams[0].autos, lang.A(p))
		fams[1].autos = append(fams[1].autos, lang.E(p))
		fams[2].autos = append(fams[2].autos, lang.R(p))
		fams[3].autos = append(fams[3].autos, lang.P(p))
	}
	for i := 0; i+1 < len(props); i++ {
		ob, err := lang.SimpleObligation(props[i], props[i+1])
		if err != nil {
			t.Fatal(err)
		}
		fams[4].autos = append(fams[4].autos, ob)
	}
	return fams
}

// plannedContains probes both operands, plans and runs L(a) ⊇ L(b) —
// the engine's containment path without its memo cache.
func plannedContains(a, b *omega.Automaton) (plan.Outcome, error) {
	ctx := context.Background()
	pa, err := plan.ProbeAutomaton(ctx, a)
	if err != nil {
		return plan.Outcome{}, err
	}
	pb, err := plan.ProbeAutomaton(ctx, b)
	if err != nil {
		return plan.Outcome{}, err
	}
	return plan.ContainsWith(ctx, plan.DecideContains(pa, pb), a, b)
}

// checkContainsWitness checks a false verdict's lasso separates the
// languages: w ∈ L(b) − L(a).
func checkContainsWitness(t *testing.T, label string, a, b *omega.Automaton, w word.Lasso) {
	t.Helper()
	if w.IsZero() {
		t.Fatalf("%s: false verdict carries the zero lasso", label)
	}
	inB, err := b.Accepts(w)
	if err != nil {
		t.Fatal(err)
	}
	inA, err := a.Accepts(w)
	if err != nil {
		t.Fatal(err)
	}
	if !inB || inA {
		t.Fatalf("%s: witness %v not in L(b)−L(a) (inB=%v inA=%v)\na:\n%s\nb:\n%s",
			label, w, inB, inA, a.Text(), b.Text())
	}
}

// diffContains runs one planned containment and diffs verdict and
// witness against the lazy and eager oracles. Returns the outcome for
// callers asserting provenance.
func diffContains(t *testing.T, label string, a, b *omega.Automaton) plan.Outcome {
	t.Helper()
	out, err := plannedContains(a, b)
	if err != nil {
		t.Fatalf("%s: planned: %v", label, err)
	}
	lazyOK, _, err := a.Contains(b)
	if err != nil {
		t.Fatalf("%s: lazy: %v", label, err)
	}
	eagerOK, _, err := a.ContainsEager(b)
	if err != nil {
		t.Fatalf("%s: eager: %v", label, err)
	}
	if lazyOK != eagerOK {
		t.Fatalf("%s: oracles disagree (lazy %v, eager %v)", label, lazyOK, eagerOK)
	}
	if out.Holds != eagerOK {
		t.Fatalf("%s: planned verdict %v on tier %v, oracle %v\na:\n%s\nb:\n%s",
			label, out.Holds, out.Tier, eagerOK, a.Text(), b.Text())
	}
	if !out.Holds {
		checkContainsWitness(t, label+" (planned)", a, b, out.Witness)
	} else if !out.Witness.IsZero() {
		t.Fatalf("%s: true verdict carries non-zero lasso %v", label, out.Witness)
	}
	return out
}

// TestDifferentialTierFamilies diffs planned containment over all pairs
// within each class family. The safety and guarantee families must be
// answered on a reachability tier, never the Streett path; the other
// families run the Streett path. Each family must plan its own tier for
// at least one pair — not for every pair, because some fixtures
// legitimately land cheaper (e.g. R("a.*") is "starts with a", a clopen
// language, so its probe reports Safety and the planner rightly
// prefers the safety tier).
func TestDifferentialTierFamilies(t *testing.T) {
	for _, fam := range classFamilies(t) {
		sawOwn := false
		for i, a := range fam.autos {
			for j, b := range fam.autos {
				label := fam.class + " pair " + itoa(i) + "," + itoa(j)
				out := diffContains(t, label, a, b)
				if out.Fallback {
					t.Fatalf("%s: unexpected fallback: %s", label, out.Reason)
				}
				if fam.tier != plan.TierStreett && out.Planned == plan.TierStreett {
					t.Fatalf("%s: planned the Streett path; the family carries class evidence", label)
				}
				sawOwn = sawOwn || out.Planned == fam.tier
			}
		}
		if !sawOwn {
			t.Errorf("family %s: no pair planned %v", fam.class, fam.tier)
		}
	}
}

// TestDifferentialCrossFamilies diffs containment across class
// families: a safety container plans TierSafety whatever the contained
// operand is. Whatever the tier, the verdict must match the oracle.
func TestDifferentialCrossFamilies(t *testing.T) {
	fams := classFamilies(t)
	for x, fa := range fams {
		for y, fb := range fams {
			if x == y {
				continue
			}
			a, b := fa.autos[0], fb.autos[1]
			out := diffContains(t, fa.class+"⊇"+fb.class, a, b)
			if fa.class == "safety" && out.Planned != plan.TierSafety {
				t.Errorf("safety container planned %v, want safety regardless of the contained operand", out.Planned)
			}
		}
	}
}

// TestDifferentialRandomStreett diffs planned containment against the
// oracles over random Streett pairs. Most pairs carry no class
// evidence and exercise the pass-through; the rest exercise specialized
// paths on arbitrary (not purpose-built) structure.
func TestDifferentialRandomStreett(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	tiers := map[plan.Tier]int{}
	for i := 0; i < diffN(t); i++ {
		n1, n2 := 2+rng.Intn(3), 2+rng.Intn(3)
		a := gen.RandomStreett(rng, ab, n1, 1+rng.Intn(2), 0.4, 0.4)
		b := gen.RandomStreett(rng, ab, n2, 1+rng.Intn(2), 0.4, 0.4)
		out := diffContains(t, "random pair "+itoa(i), a, b)
		tiers[out.Tier]++
	}
	if len(tiers) < 2 {
		t.Errorf("random corpus landed on tiers %v only — corpus no longer exercises the planner", tiers)
	}
}

// TestDifferentialEmptiness diffs planned emptiness against a
// brute-force oracle over every family automaton, random automata, and
// purpose-built empty languages: when some lasso of a bounded corpus is
// accepted the verdict must be non-empty, and every returned witness
// must be accepted by its automaton.
func TestDifferentialEmptiness(t *testing.T) {
	var autos []*omega.Automaton
	for _, fam := range classFamilies(t) {
		autos = append(autos, fam.autos...)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < diffN(t)/4; i++ {
		autos = append(autos, gen.RandomStreett(rng, ab, 2+rng.Intn(4), 1+rng.Intn(2), 0.4, 0.4))
	}
	// Empty languages built by each Figure-1 construction: A/E/R/P of
	// the empty finitary property.
	none, err := prop(t, "a").Intersect(prop(t, "b"))
	if err != nil {
		t.Fatal(err)
	}
	autos = append(autos, lang.A(none), lang.E(none), lang.R(none), lang.P(none))

	corpus := gen.Lassos(ab, 4, 4)
	seenEmpty, corpusHits := 0, 0
	for i, a := range autos {
		out, err := plan.EmptinessWith(context.Background(), plan.DecideEmptiness(plan.Probe{}), a)
		if err != nil {
			t.Fatalf("auto %d: planned emptiness: %v", i, err)
		}
		if out.Tier != plan.TierStreett || out.Fallback {
			t.Fatalf("auto %d: emptiness provenance %+v, want the Streett path without fallback", i, out)
		}
		if !out.Holds {
			ok, err := a.Accepts(out.Witness)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("auto %d: emptiness witness %v rejected by its own automaton\n%s", i, out.Witness, a.Text())
			}
		} else {
			seenEmpty++
		}
		for _, w := range corpus {
			if a.AcceptsOrFalse(w) {
				if out.Holds {
					t.Fatalf("auto %d: verdict empty, but the automaton accepts %v\n%s", i, w, a.Text())
				}
				corpusHits++
				break
			}
		}
	}
	if seenEmpty == 0 || corpusHits == 0 {
		t.Errorf("corpus saw %d empty verdicts and confirmed %d non-empty ones — it no longer exercises both answers", seenEmpty, corpusHits)
	}
}

// TestFallbackUnderPlanFault proves the fallback discipline: a fault
// injected at the specialized entry must not corrupt the verdict. For
// each class family it takes the first pair planned on the family's own
// tier. On a reachability tier the planner falls back to the Streett
// path, reports Fallback with the failure in the reason, and bumps
// plan.fallbacks; on the Streett path the fault site is never reached.
// Either way the verdict agrees with the eager oracle.
func TestFallbackUnderPlanFault(t *testing.T) {
	defer fault.Reset()
	for _, fam := range classFamilies(t) {
		a, b := pairPlanning(t, fam)
		want, _, err := a.ContainsEager(b)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default().Counter("plan.fallbacks").Value()
		boom := errors.New("injected specialized-path fault")
		cleanup := fault.InjectError(fault.SitePlan, 1, boom)
		out, err := plannedContains(a, b)
		fired := fault.Fired(fault.SitePlan)
		cleanup()
		if err != nil {
			t.Fatalf("%s: fault should fall back, not error: %v", fam.class, err)
		}
		if out.Tier != plan.TierStreett || out.Planned != fam.tier {
			t.Fatalf("%s: provenance Tier=%v Planned=%v, want streett/%v", fam.class, out.Tier, out.Planned, fam.tier)
		}
		if out.Holds != want {
			t.Fatalf("%s: verdict %v != oracle %v", fam.class, out.Holds, want)
		}
		wantFallback, wantDelta := fam.tier != plan.TierStreett, int64(0)
		if wantFallback {
			wantDelta = 1
		}
		if out.Fallback != wantFallback || fired != wantFallback {
			t.Fatalf("%s: Fallback=%v, fault fired=%v, want both %v: %+v", fam.class, out.Fallback, fired, wantFallback, out)
		}
		if delta := obs.Default().Counter("plan.fallbacks").Value() - before; delta != wantDelta {
			t.Fatalf("%s: plan.fallbacks moved by %d, want %d", fam.class, delta, wantDelta)
		}
	}
}

// pairPlanning returns the first pair of the family whose containment
// the planner runs on the family's tier.
func pairPlanning(t *testing.T, fam family) (*omega.Automaton, *omega.Automaton) {
	t.Helper()
	ctx := context.Background()
	for _, a := range fam.autos {
		pa, err := plan.ProbeAutomaton(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range fam.autos {
			pb, err := plan.ProbeAutomaton(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if plan.DecideContains(pa, pb).Tier == fam.tier {
				return a, b
			}
		}
	}
	t.Fatalf("%s: no pair plans %v", fam.class, fam.tier)
	return nil, nil
}

// TestGovernanceErrorPropagates: a budget-shaped error at the
// specialized entry must NOT fall back (retrying elsewhere would evade
// the governance decision) — it propagates to the caller.
func TestGovernanceErrorPropagates(t *testing.T) {
	defer fault.Reset()
	fam := classFamilies(t)[0]
	a, b := fam.autos[0], fam.autos[1]
	boom := context.DeadlineExceeded
	cleanup := fault.InjectError(fault.SitePlan, 1, boom)
	_, err := plannedContains(a, b)
	cleanup()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("governance error should propagate, got %v", err)
	}
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}
